// Package elfx reads and writes ELF64 executables.
//
// The standard library's debug/elf is read-only; a post-link optimizer must
// also *write* executables, so elfx implements both directions over a small
// mutable model (File / Section / Symbol / Rela). The output is a
// well-formed ELF64 little-endian x86-64 executable: readelf-compatible
// headers, program headers derived from the allocatable sections, a symbol
// table, and (optionally) relocation sections as produced by a linker's
// --emit-relocs.
package elfx

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"sort"
)

// Section types (subset of the ELF spec).
const (
	SHTNull     uint32 = 0
	SHTProgbits uint32 = 1
	SHTSymtab   uint32 = 2
	SHTStrtab   uint32 = 3
	SHTRela     uint32 = 4
	SHTNobits   uint32 = 8
)

// Section flags.
const (
	SHFWrite     uint64 = 0x1
	SHFAlloc     uint64 = 0x2
	SHFExecinstr uint64 = 0x4
)

// Symbol types and bindings.
const (
	STTNotype  byte = 0
	STTObject  byte = 1
	STTFunc    byte = 2
	STTSection byte = 3

	STBLocal  byte = 0
	STBGlobal byte = 1
)

// Relocation types. The first three match the x86-64 psABI numbering; JT32
// is our stand-in for the compiler-internal PIC jump-table relocation the
// paper notes is *not* preserved by linkers (§3.2) — the linker resolves
// and discards it, so gobolt must rediscover those tables by analysis.
const (
	RX8664None  uint32 = 0
	RX866464    uint32 = 1   // S + A      (64-bit absolute)
	RX8664PC32  uint32 = 2   // S + A - P  (32-bit PC-relative)
	RX8664PLT32 uint32 = 4   // L + A - P  (via PLT)
	RJT32       uint32 = 250 // S + A - JTBASE (PIC jump-table entry; never emitted to files)
)

// Section is a named chunk of the address space (or of metadata).
type Section struct {
	Name      string
	Type      uint32
	Flags     uint64
	Addr      uint64
	Data      []byte
	Link      uint32
	Info      uint32
	Addralign uint64
	Entsize   uint64
	// Len declares the size of a section whose bytes are written after
	// layout: while Data is nil the section is Len bytes long, and
	// Image gives it a zeroed window of the image to fill.
	Len uint64
}

// Size returns the section's size in bytes.
func (s *Section) Size() uint64 {
	if s.Data == nil {
		return s.Len
	}
	return uint64(len(s.Data))
}

// Contains reports whether vaddr falls inside the section.
func (s *Section) Contains(vaddr uint64) bool {
	return s.Flags&SHFAlloc != 0 && vaddr >= s.Addr && vaddr < s.Addr+s.Size()
}

// Symbol is an entry of the symbol table.
type Symbol struct {
	Name    string
	Value   uint64
	Size    uint64
	Type    byte
	Bind    byte
	Section string // owning section name; "" = SHN_UNDEF, "*ABS*" = SHN_ABS
}

// Rela is a relocation with explicit addend, attached to a target section.
type Rela struct {
	Off    uint64 // offset within the target section
	Type   uint32
	Sym    string // referenced symbol name
	Addend int64
}

// File is a mutable ELF64 executable image.
type File struct {
	Entry    uint64
	Sections []*Section
	Symbols  []Symbol
	// Relas maps a target section name to its relocations (".text" ->
	// entries that would live in ".rela.text"). Populated on write only
	// when EmitRelocs is set; populated on read when the sections exist.
	Relas      map[string][]Rela
	EmitRelocs bool
}

// New returns an empty executable image.
func New() *File {
	return &File{Relas: make(map[string][]Rela)}
}

// Section returns the named section, or nil.
func (f *File) Section(name string) *Section {
	for _, s := range f.Sections {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// AddSection appends a section and returns it.
func (f *File) AddSection(s *Section) *Section {
	f.Sections = append(f.Sections, s)
	return s
}

// SectionFor returns the allocatable section containing vaddr, or nil.
func (f *File) SectionFor(vaddr uint64) *Section {
	for _, s := range f.Sections {
		if s.Contains(vaddr) {
			return s
		}
	}
	return nil
}

// ExecSpan returns the [lo, hi) address range the non-empty executable
// sections span, or (0, 0) when there are none.
func (f *File) ExecSpan() (lo, hi uint64) {
	for _, s := range f.Sections {
		if s.Flags&SHFExecinstr == 0 || s.Size() == 0 {
			continue
		}
		if hi == 0 || s.Addr < lo {
			lo = s.Addr
		}
		hi = max(hi, s.Addr+s.Size())
	}
	return lo, hi
}

// ReadAt copies out bytes at virtual address vaddr from whichever section
// holds them.
func (f *File) ReadAt(vaddr uint64, n int) ([]byte, error) {
	s := f.SectionFor(vaddr)
	if s == nil {
		return nil, fmt.Errorf("elfx: address %#x not mapped", vaddr)
	}
	off := vaddr - s.Addr // below s.Size(): s holds vaddr
	if n < 0 || uint64(n) > s.Size()-off {
		return nil, fmt.Errorf("elfx: read of %d bytes at %#x crosses end of %s", n, vaddr, s.Name)
	}
	return s.Data[off : off+uint64(n)], nil
}

// FuncSymbols returns all STT_FUNC symbols sorted by value.
func (f *File) FuncSymbols() []Symbol {
	var out []Symbol
	for _, s := range f.Symbols {
		if s.Type == STTFunc {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value < out[j].Value
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// SymbolByName returns the first symbol with the given name.
func (f *File) SymbolByName(name string) (Symbol, bool) {
	for _, s := range f.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// SymbolIndex answers which function symbol covers an address in
// O(log n). It is a snapshot of the symbol table it was built from: a
// later edit to that table is not seen, so build one per use.
type SymbolIndex struct {
	segs []symSegment // sorted, non-overlapping
}

// symSegment is an address range with one winning symbol.
type symSegment struct {
	lo, hi uint64 // [lo, hi)
	sym    Symbol
}

// NewSymbolIndex indexes the STT_FUNC symbols of syms. An address maps to
// the tightest function symbol whose [Value, Value+Size) covers it; of
// equally tight ones the first in table order wins, and a zero-size
// symbol (or one whose end wraps past 2^64) covers nothing.
func NewSymbolIndex(syms []Symbol) *SymbolIndex {
	var cands []int // indices into syms, sorted by Value then table order
	var bounds []uint64
	for i, s := range syms {
		if s.Type == STTFunc && s.Value+s.Size > s.Value {
			cands = append(cands, i)
			bounds = append(bounds, s.Value, s.Value+s.Size)
		}
	}
	slices.SortStableFunc(cands, func(a, b int) int { return cmp.Compare(syms[a].Value, syms[b].Value) })
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)

	// Sweep the boundaries; active holds every candidate that started at
	// or before the current one, tightest (then first) on top. Ended
	// candidates leave lazily, when they reach the top.
	x := &SymbolIndex{}
	active := &tightest{syms: syms}
	next := 0
	for bi, b := range bounds[:max(len(bounds)-1, 0)] {
		for ; next < len(cands) && syms[cands[next]].Value == b; next++ {
			heap.Push(active, cands[next])
		}
		for active.Len() > 0 && syms[active.top()].Value+syms[active.top()].Size <= b {
			heap.Pop(active)
		}
		if active.Len() == 0 {
			continue
		}
		x.segs = append(x.segs, symSegment{lo: b, hi: bounds[bi+1], sym: syms[active.top()]})
	}
	return x
}

// At returns the function symbol covering vaddr.
func (x *SymbolIndex) At(vaddr uint64) (Symbol, bool) {
	i, _ := slices.BinarySearchFunc(x.segs, vaddr, func(s symSegment, v uint64) int {
		if s.hi <= v {
			return -1
		}
		return 0
	})
	if i == len(x.segs) || vaddr < x.segs[i].lo {
		return Symbol{}, false
	}
	return x.segs[i].sym, true
}

// tightest is a heap of symbol indices ordered by size, then table order.
type tightest struct {
	syms []Symbol
	idx  []int
}

func (h *tightest) Len() int { return len(h.idx) }
func (h *tightest) Less(i, j int) bool {
	a, b := h.idx[i], h.idx[j]
	if h.syms[a].Size != h.syms[b].Size {
		return h.syms[a].Size < h.syms[b].Size
	}
	return a < b
}
func (h *tightest) Swap(i, j int) { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *tightest) Push(v any)    { h.idx = append(h.idx, v.(int)) }
func (h *tightest) Pop() any {
	v := h.idx[len(h.idx)-1]
	h.idx = h.idx[:len(h.idx)-1]
	return v
}
func (h *tightest) top() int { return h.idx[0] }
