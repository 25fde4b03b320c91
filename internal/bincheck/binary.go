package bincheck

import (
	"sort"
	"strings"

	"gobolt/internal/cfi"
	"gobolt/internal/elfx"
	"gobolt/internal/isa"
)

// ColdSuffix is the symbol-name suffix the rewriter gives the cold
// fragment of a split function (mirroring llvm-bolt's naming).
const ColdSuffix = ".cold.0"

// instAt is one decoded instruction inside a fragment.
type instAt struct {
	off  uint32
	size uint32
	inst isa.Inst
}

// window is the disassembler's look-back, the last 16 instructions by
// instruction number: deriveTable reaches the jump, the two instructions
// of the PIC pattern and eight more for the table-base lea, and nothing
// else reads instructions, so none outlives the decode loop.
type window [16]instAt

func (w *window) at(i int) *instAt { return &w[i&(len(w)-1)] }

// site is one direct control transfer (jmp, jcc or call): what the
// rules that follow control flow read in place of instructions.
type site struct {
	off    uint32
	size   uint8
	op     isa.Op
	cc     isa.Cond
	target uint64
}

func (s *site) mnemonic() string {
	in := isa.Inst{Op: s.op, Cc: s.cc}
	return in.Mnemonic()
}

// indirect is one computed jump with its table already re-derived (see
// deriveTable); why says what broke the pattern when ok is false.
type indirect struct {
	off uint32
	jt  jumpTable
	why string
	ok  bool
}

// fragment is one contiguous chunk of function code named by an
// STT_FUNC symbol: a hot or cold fragment of a rewritten function, an
// unmoved function in .bolt.org.text, or a PLT stub.
type fragment struct {
	name string // defining symbol name (fn or fn.cold.0)
	fn   string // owning function (ColdSuffix stripped)
	// reemitted marks fragments the rewriter laid out itself (.text /
	// .text.cold); the strictest rules apply only to those.
	reemitted bool
	// split marks a fragment whose function has another fragment.
	split      bool
	addr, size uint64
	sec        *elfx.Section
	code       []byte // nil when the symbol's range leaves its section

	// starts has one bit per code byte, set at instruction starts.
	starts []uint64
	sites  []site
	jumps  []indirect
	ninst  int  // zero unless the whole fragment decoded
	broken bool // decoding failed; instruction-level rules skip

	// Set by bindFrames and bindBAT: the first FDE starting here, and
	// how many FDEs and BAT ranges name the fragment.
	fde        *cfi.FDE
	nfde, nbat int
}

func (fr *fragment) end() uint64 { return fr.addr + fr.size }

// isBoundary reports whether off is an instruction start.
func (fr *fragment) isBoundary(off uint32) bool {
	w := int(off >> 6)
	return w < len(fr.starts) && fr.starts[w]>>(off&63)&1 != 0
}

// checker carries the rebuilt model of one binary through the rules.
type checker struct {
	f     *elfx.File
	frags []*fragment // sorted by addr
	// byName maps every defining symbol name (including ICF aliases) to
	// its fragment.
	byName map[string]*fragment
	// objSyms maps data-symbol start addresses to their first symbol
	// (jump-table bounding, mirroring the loader's lookup order).
	objSyms map[uint64]elfx.Symbol
	res     *Result
}

// worker is one pool goroutine's private state: its findings, merged
// after the last rule has run, and the slab (siteSlab sites at a time)
// its fragments' site lists are cut from.
type worker struct {
	*checker
	findings []Finding
	sites    []site
}

const siteSlab = 4096

// index rebuilds the fragment map from the symbol table and carves one
// boundary bitset per fragment out of a single slab. It is the serial
// front of a check; disassembly fans out behind it.
func (c *checker) index() {
	c.byName = map[string]*fragment{}
	c.objSyms = map[uint64]elfx.Symbol{}
	byRange := map[[2]uint64]*fragment{}
	byFunc := map[string]*fragment{} // first fragment of each function

	words := uint64(0)
	for _, sym := range c.f.Symbols {
		if sym.Type == elfx.STTObject {
			if _, ok := c.objSyms[sym.Value]; !ok {
				c.objSyms[sym.Value] = sym
			}
			continue
		}
		if sym.Type != elfx.STTFunc || sym.Size == 0 {
			continue
		}
		sec := c.f.Section(sym.Section)
		if sec == nil || sec.Flags&elfx.SHFExecinstr == 0 {
			continue
		}
		if fr, ok := byRange[[2]uint64{sym.Value, sym.Size}]; ok {
			// Identical range under another name: a linker-ICF alias.
			c.byName[sym.Name] = fr
			continue
		}
		fr := &fragment{
			name: sym.Name, fn: strings.TrimSuffix(sym.Name, ColdSuffix),
			reemitted: sec.Name == ".text" || sec.Name == ".text.cold",
			addr:      sym.Value, size: sym.Size, sec: sec,
		}
		// A range that leaves its section has no code to decode;
		// checkSymbols reports the bounds violation.
		if off := fr.addr - sec.Addr; fr.addr >= sec.Addr && off <= uint64(len(sec.Data)) && fr.size <= uint64(len(sec.Data))-off {
			fr.code = sec.Data[off : off+fr.size]
			words += (fr.size + 63) / 64
		} else {
			fr.broken = true
		}
		if first, ok := byFunc[fr.fn]; ok {
			first.split, fr.split = true, true
		} else {
			byFunc[fr.fn] = fr
		}
		byRange[[2]uint64{sym.Value, sym.Size}] = fr
		c.byName[sym.Name] = fr
		c.frags = append(c.frags, fr)
	}
	sort.Slice(c.frags, func(i, j int) bool {
		a, b := c.frags[i], c.frags[j]
		if a.addr != b.addr {
			return a.addr < b.addr
		}
		return a.size < b.size
	})
	c.res.Fragments = len(c.frags)

	slab := make([]uint64, words)
	for _, fr := range c.frags {
		n := (uint64(len(fr.code)) + 63) / 64
		fr.starts, slab = slab[:n:n], slab[n:]
	}
}

// disassemble linearly decodes a fragment, setting a bit at every
// instruction start and keeping the control-transfer sites. A decode
// failure marks the fragment broken: the bytes do not form an
// instruction stream, which is itself a finding, and the
// instruction-level rules skip the fragment rather than cascade.
func (w *worker) disassemble(fr *fragment) {
	if fr.code == nil {
		return
	}
	if cap(w.sites)-len(w.sites) < siteSlab/8 {
		w.sites = make([]site, 0, siteSlab)
	}
	first := len(w.sites)
	var win window
	n := 0
	for off := uint32(0); uint64(off) < fr.size; n++ {
		at := win.at(n)
		size, err := isa.Decode(&at.inst, fr.code[off:], fr.addr+uint64(off))
		if err != nil {
			w.errorf("disasm", fr.name, fr.addr+uint64(off),
				"undecodable bytes at offset %#x: %v", off, err)
			fr.broken = true
			w.sites = w.sites[:first]
			return
		}
		at.off, at.size = off, uint32(size)
		fr.starts[off>>6] |= 1 << (off & 63)
		switch in := &at.inst; {
		case in.IsDirectBranch() || in.Op == isa.CALL:
			w.sites = append(w.sites, site{off: off, size: uint8(size), op: in.Op, cc: in.Cc, target: in.TargetAddr()})
		case in.IsIndirectBranch():
			j := indirect{off: off}
			j.jt, j.why, j.ok = w.deriveTable(fr, &win, n)
			// Computed jumps are a handful per binary: no slab for them.
			fr.jumps = append(fr.jumps, j)
		}
		off += uint32(size)
	}
	fr.ninst = n
	fr.sites = w.sites[first:len(w.sites):len(w.sites)]
}

// at locates the fragment containing addr, if any.
func (c *checker) at(addr uint64) *fragment {
	i := sort.Search(len(c.frags), func(i int) bool { return c.frags[i].addr > addr })
	if i == 0 {
		return nil
	}
	fr := c.frags[i-1]
	if addr >= fr.end() {
		return nil
	}
	return fr
}

// fragStarting returns the fragment starting exactly at addr, if any.
func (c *checker) fragStarting(addr uint64) *fragment {
	fr := c.at(addr)
	if fr == nil || fr.addr != addr {
		return nil
	}
	return fr
}

// validTarget reports whether addr is an instruction boundary inside a
// known fragment. Fragments that failed to decode accept any interior
// address (the disasm finding already covers them).
func (c *checker) validTarget(addr uint64) (*fragment, bool) {
	fr := c.at(addr)
	if fr == nil {
		return nil, false
	}
	if fr.broken {
		return fr, true
	}
	return fr, fr.isBoundary(uint32(addr - fr.addr))
}

// checkSymbols verifies the fragment map itself: fragments inside their
// sections, no partial overlaps, a valid entry point.
func (w *worker) checkSymbols() {
	for i, fr := range w.frags {
		if fr.code == nil {
			w.errorf("sym-bounds", fr.name, fr.addr,
				"fragment [%#x,%#x) extends past section %s [%#x,%#x)",
				fr.addr, fr.end(), fr.sec.Name, fr.sec.Addr, fr.sec.Addr+uint64(len(fr.sec.Data)))
		}
		if i > 0 {
			prev := w.frags[i-1]
			if fr.addr < prev.end() {
				w.errorf("sym-overlap", fr.name, fr.addr,
					"fragment [%#x,%#x) overlaps %s [%#x,%#x)",
					fr.addr, fr.end(), prev.name, prev.addr, prev.end())
			}
		}
	}
	if w.f.Entry != 0 {
		if fr, ok := w.validTarget(w.f.Entry); !ok {
			name := ""
			if fr != nil {
				name = fr.name
			}
			w.errorf("sym-entry", name, w.f.Entry,
				"entry point %#x is not an instruction boundary in any fragment", w.f.Entry)
		}
	}
}

// checkRelocs bounds-checks every surviving relocation against its
// section's data (outputs usually carry none; inputs opened for
// inspection do).
func (w *worker) checkRelocs() {
	names := make([]string, 0, len(w.f.Relas))
	for name := range w.f.Relas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sec := w.f.Section(name)
		if sec == nil {
			w.errorf("reloc-bounds", "", 0, "relocations for missing section %q", name)
			continue
		}
		for _, r := range w.f.Relas[name] {
			width := uint64(4)
			if r.Type == elfx.RX866464 {
				width = 8
			}
			if r.Off+width > uint64(len(sec.Data)) {
				w.errorf("reloc-bounds", r.Sym, sec.Addr+r.Off,
					"relocation at %s+%#x overruns the section (%d bytes)",
					name, r.Off, len(sec.Data))
			}
		}
	}
}
