// Package bat implements the BOLT Address Translation table (paper §7.3,
// "BOLT for continuous profiling"): a map from every address range of the
// *optimized* binary's relocated code back to (input function, input
// offset) coordinates. gobolt writes the table into a .bolt.bat section
// during rewrite; perf2bolt detects the section and uses it to rewrite a
// profile collected in production on the BOLTed binary into input-binary
// coordinates, closing the continuous-PGO loop: the translated profile
// feeds a fresh gobolt run on the *original* binary.
//
// Granularity is per emitted instruction: each range (one hot or cold
// fragment of one function) carries anchors (output offset -> input
// offset) for every instruction that originated in the input binary.
// Synthesized instructions (layout jumps, ICP compares) have no anchor
// and clamp to the nearest preceding one.
package bat

//boltvet:hot-path Parse decodes two varints per emitted instruction of the binary on every verification and every profile translation

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// SectionName is where the serialized table lives in the output ELF.
const SectionName = ".bolt.bat"

// magic and version guard the encoding.
const (
	magic   = "GBAT"
	version = 1
)

// Entry anchors one emitted instruction: its offset within the output
// fragment and the matching offset within the input function.
type Entry struct {
	OutOff uint32
	InOff  uint32
}

// Range is one contiguous chunk of relocated code (the hot or cold
// fragment of one function) in the output address space.
type Range struct {
	FuncIdx int    // index into Table.Funcs
	Start   uint64 // output virtual address of the fragment
	Size    uint32 // fragment size in bytes
	Cold    bool
	Entries []Entry // sorted by OutOff
}

// FuncInfo describes one input-coordinate function the table maps into.
type FuncInfo struct {
	Name   string
	InSize uint64 // input-binary function size (for validation)
}

// Table is the full address-translation map of one rewritten binary.
type Table struct {
	Funcs  []FuncInfo
	Ranges []Range // sorted by Start (Encode/Translate maintain this)

	funcIdx map[string]int
	sorted  bool
}

// AddFunc interns a function and returns its index.
func (t *Table) AddFunc(name string, inSize uint64) int {
	if t.funcIdx == nil {
		t.funcIdx = map[string]int{}
	}
	if i, ok := t.funcIdx[name]; ok {
		return i
	}
	i := len(t.Funcs)
	t.Funcs = append(t.Funcs, FuncInfo{Name: name, InSize: inSize})
	t.funcIdx[name] = i
	return i
}

// FuncSize returns the input-binary size of a mapped function.
func (t *Table) FuncSize(name string) (uint64, bool) {
	if t.funcIdx == nil {
		t.funcIdx = map[string]int{}
		for i, f := range t.Funcs {
			t.funcIdx[f.Name] = i
		}
	}
	i, ok := t.funcIdx[name]
	if !ok {
		return 0, false
	}
	return t.Funcs[i].InSize, true
}

// AddRange appends a fragment range. Entries must be sorted by OutOff;
// ranges are re-sorted by start address on the next Encode or Translate,
// so call order does not matter.
func (t *Table) AddRange(r Range) {
	t.Ranges = append(t.Ranges, r)
	t.sorted = false
}

func (t *Table) ensureSorted() {
	if t.sorted {
		return
	}
	sort.Slice(t.Ranges, func(i, j int) bool { return t.Ranges[i].Start < t.Ranges[j].Start })
	t.sorted = true
}

// Encode serializes the table deterministically: header, function table,
// then ranges sorted by output start address with delta-compressed
// anchors.
func (t *Table) Encode() []byte {
	t.ensureSorted()
	// Sized up front: an anchor takes two bytes (one per delta) except
	// where the layout jumps, 2.1 on average on the clang and hhvm
	// presets; growing by append instead copied the table ten times over.
	size := len(magic) + 2*binary.MaxVarintLen64
	for _, f := range t.Funcs {
		size += len(f.Name) + 2*binary.MaxVarintLen32
	}
	for _, r := range t.Ranges {
		size += 5*binary.MaxVarintLen32 + 5*len(r.Entries)/2
	}
	out := append(make([]byte, 0, size), magic...)
	out = binary.AppendUvarint(out, version)
	out = binary.AppendUvarint(out, uint64(len(t.Funcs)))
	for _, f := range t.Funcs {
		out = binary.AppendUvarint(out, uint64(len(f.Name)))
		out = append(out, f.Name...)
		out = binary.AppendUvarint(out, f.InSize)
	}
	out = binary.AppendUvarint(out, uint64(len(t.Ranges)))
	prevStart := uint64(0)
	for _, r := range t.Ranges {
		out = binary.AppendUvarint(out, uint64(r.FuncIdx))
		flags := uint64(0)
		if r.Cold {
			flags = 1
		}
		out = binary.AppendUvarint(out, flags)
		out = binary.AppendUvarint(out, r.Start-prevStart) // ascending
		prevStart = r.Start
		out = binary.AppendUvarint(out, uint64(r.Size))
		out = binary.AppendUvarint(out, uint64(len(r.Entries)))
		prevOut, prevIn := uint64(0), uint64(0)
		for _, e := range r.Entries {
			out = binary.AppendUvarint(out, uint64(e.OutOff)-prevOut)
			out = appendZigzag(out, int64(uint64(e.InOff))-int64(prevIn))
			prevOut, prevIn = uint64(e.OutOff), uint64(e.InOff)
		}
	}
	return out
}

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		//boltvet:alloc-ok sticky error: set once, and the parse is over
		r.err = fmt.Errorf("bat: truncated uvarint at %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) zigzag() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if uint64(r.pos)+n > uint64(len(r.data)) {
		//boltvet:alloc-ok sticky error: set once, and the parse is over
		r.err = fmt.Errorf("bat: truncated string at %d", r.pos)
		return nil
	}
	b := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// left bounds how many more records of at least size bytes each the
// section can still hold: no claimed count is believed past it, so a
// hostile count cannot buy an allocation larger than the bytes that
// carry it.
func (r *reader) left(claimed uint64, size int) int {
	return int(min(claimed, uint64((len(r.data)-r.pos)/size)))
}

// Parse decodes a table serialized by Encode. Funcs, Ranges and every
// range's Entries are sized from the decoded counts; the entries of all
// ranges share one slab.
func Parse(data []byte) (*Table, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("bat: bad magic")
	}
	r := &reader{data: data, pos: len(magic)}
	if v := r.uvarint(); r.err == nil && v != version {
		return nil, fmt.Errorf("bat: unsupported version %d", v)
	}
	t := &Table{}
	nf := r.uvarint()
	if nf > 1<<24 {
		return nil, fmt.Errorf("bat: implausible function count %d", nf)
	}
	t.Funcs = make([]FuncInfo, 0, r.left(nf, 2)) // name length, size
	for i := uint64(0); i < nf && r.err == nil; i++ {
		nameLen := r.uvarint()
		if nameLen > 1<<16 {
			return nil, fmt.Errorf("bat: implausible name length %d", nameLen)
		}
		name := string(r.bytes(nameLen))
		size := r.uvarint()
		t.Funcs = append(t.Funcs, FuncInfo{Name: name, InSize: size})
	}
	nr := r.uvarint()
	if nr > 1<<24 {
		return nil, fmt.Errorf("bat: implausible range count %d", nr)
	}
	t.Ranges = make([]Range, 0, r.left(nr, 5)) // five varints ahead of the anchors
	// An anchor is two varints, so half the bytes left bounds the
	// anchors of every range together: one slab holds them all, and each
	// range's share is cut with its capacity so that appending to one
	// range's Entries can never write into the next's.
	slab := make([]Entry, (len(data)-r.pos)/2)
	start := uint64(0)
	for i := uint64(0); i < nr && r.err == nil; i++ {
		var rg Range
		fi := r.uvarint()
		if fi >= uint64(len(t.Funcs)) {
			return nil, fmt.Errorf("bat: range references function %d of %d", fi, len(t.Funcs))
		}
		rg.FuncIdx = int(fi)
		rg.Cold = r.uvarint()&1 != 0
		start += r.uvarint()
		rg.Start = start
		rg.Size = uint32(r.uvarint())
		ne := r.uvarint()
		if ne > 1<<24 {
			return nil, fmt.Errorf("bat: implausible entry count %d", ne)
		}
		n := r.left(ne, 2)
		rg.Entries, slab = slab[:0:n], slab[n:]
		outOff, inOff := uint64(0), int64(0)
		for j := uint64(0); j < ne; j++ {
			outOff += r.uvarint()
			inOff += r.zigzag()
			if r.err != nil {
				break
			}
			rg.Entries = append(rg.Entries, Entry{OutOff: uint32(outOff), InOff: uint32(inOff)})
		}
		t.Ranges = append(t.Ranges, rg)
	}
	if r.err != nil {
		return nil, r.err
	}
	t.sorted = true // deltas are unsigned, so decode order is ascending
	return t, nil
}

// Translate maps an output-binary virtual address to input coordinates.
// Addresses inside a mapped range resolve to the nearest anchored
// instruction at or before them; addresses outside every range (unmoved
// code, data) report ok=false.
func (t *Table) Translate(addr uint64) (fn string, off uint64, ok bool) {
	t.ensureSorted()
	i := sort.Search(len(t.Ranges), func(i int) bool { return t.Ranges[i].Start > addr })
	if i == 0 {
		return "", 0, false
	}
	r := &t.Ranges[i-1]
	if addr >= r.Start+uint64(r.Size) {
		return "", 0, false
	}
	rel := uint32(addr - r.Start)
	es := r.Entries
	j := sort.Search(len(es), func(j int) bool { return es[j].OutOff > rel })
	if j == 0 {
		// Before the first anchor (can only happen for fully synthesized
		// prefixes); clamp to the fragment's first anchor if any.
		if len(es) == 0 {
			return "", 0, false
		}
		return t.Funcs[r.FuncIdx].Name, uint64(es[0].InOff), true
	}
	// Clamp to the anchor: sampled addresses land on instruction starts,
	// and for synthesized instructions the nearest originating
	// instruction is the best input-coordinate witness.
	return t.Funcs[r.FuncIdx].Name, uint64(es[j-1].InOff), true
}
