package core

import (
	"bytes"
	"fmt"

	"gobolt/internal/asmx"
	"gobolt/internal/bat"
	"gobolt/internal/cfi"
	"gobolt/internal/dbg"
	"gobolt/internal/isa"
	"gobolt/internal/obj"
)

// Emission relocation symbol encoding. Emitted code references targets
// symbolically until the whole-binary layout is fixed: a packed
// obj.SymID names a function entry (by ordinal, following ICF folds), a
// basic block (ordinal plus block index), or an absolute address (data,
// PLT stubs, unmoved code). Construction and inspection go through the
// internal/obj helpers only: the type is opaque outside that package.

// relImmAbs32 marks an emission relocation whose 4 patched bytes hold an
// absolute 32-bit address (ICP immediates) rather than a PC32 value.
const relImmAbs32 uint32 = 900

// fragCallSite is an LSDA entry before landing-pad addresses are known.
type fragCallSite struct {
	Start, Len uint32
	LP         *BasicBlock
	Action     int32
}

// fragment is one contiguous run of emitted code — a function's hot part,
// or its cold part when function splitting moved blocks out — and the
// unit the layout places: everything downstream of emitFunction (address
// assignment, patching, BAT, LSDA, FDEs, line entries, symbols) is one
// loop over the fragments of each function.
type fragment struct {
	fn   *BinaryFunction
	cold bool
	// addr is the output address, assigned by (*emitter).place.
	addr uint64

	Code      []byte
	Relocs    []obj.Reloc
	CFI       []cfi.PCInst
	CallSites []fragCallSite
	Lines     []obj.LineEntry
	// BAT holds the fragment's BAT entries in wire form: for every
	// emitted instruction that originated in this function of the input
	// binary, its output offset within the fragment and its input offset
	// within the function. Sorted by OutOff; synthesized instructions
	// have none.
	BAT bat.Anchors
}

// A function's block-offset table maps block Index to the block's offset
// within its fragment, with the fragment's index (0 hot, 1 cold) in the
// top bit; noBlockOff marks a block that was not emitted.
const (
	noBlockOff   = ^uint32(0)
	blockOffBits = 31
)

// Emission mark records: positions noted during assembly and resolved to
// offsets once Finish fixes the layout.
type cfiMark struct {
	label asmx.Label
	inst  cfi.Inst
}
type csMark struct {
	start, end asmx.Label
	lp         *BasicBlock
	action     int32
}
type lineMark struct {
	label asmx.Label
	src   int32 // Inst.Src of the instruction that opened the line
}
type anchorMark struct {
	label  asmx.Label
	inAddr uint64
}

// srcPos is a (file, line) pair; file is one-based, zero = no source.
type srcPos struct{ file, line uint32 }

// emitScratch is one emission worker's reusable state: the assembler
// (items, labels, label-offset scratch), the block label table, the four
// mark lists, the BAT entry buffer, and the running state of the
// fragment being assembled.
// Everything is reset — not reallocated — between fragments, so
// steady-state emission allocates only what survives in the emitted
// fragments. A scratch is owned by exactly one worker.
type emitScratch struct {
	asm         asmx.Assembler
	labels      []asmx.Label // block Index -> label; asmx.None = not in fragment
	cfiMarks    []cfiMark
	csMarks     []csMark
	lineMarks   []lineMark
	anchorMarks []anchorMark
	bat         bat.Anchors

	fn      *BinaryFunction
	lines   *dbg.Table
	running cfi.State // unwind state in effect at the current position
	// runningIdx is the interned state running was last set from, -1
	// while it is still the initial state.
	runningIdx int32
	lastPos    srcPos // a line mark opens where the (file, line) pair changes
}

// reset prepares the scratch for one fragment of fn with nBlocks label
// slots, reusing every backing array that is big enough.
func (sc *emitScratch) reset(fn *BinaryFunction, lines *dbg.Table, nBlocks int) {
	sc.asm.Reset()
	if cap(sc.labels) < nBlocks {
		sc.labels = make([]asmx.Label, nBlocks)
	}
	sc.labels = sc.labels[:nBlocks]
	for i := range sc.labels {
		sc.labels[i] = asmx.None
	}
	sc.cfiMarks = sc.cfiMarks[:0]
	sc.csMarks = sc.csMarks[:0]
	sc.lineMarks = sc.lineMarks[:0]
	sc.anchorMarks = sc.anchorMarks[:0]
	sc.fn, sc.lines = fn, lines
	sc.running, sc.runningIdx = cfi.InitialState(), -1
	sc.lastPos = srcPos{}
}

// emitFunction assembles the function's current block layout into machine
// code — one fragment, or two when it is split — plus the function's
// block-offset table: terminators are materialized against the layout
// (the fixup-branches responsibility), CFI is spliced by state diffing,
// and exception call sites are collected per fragment. Everything it
// reads and writes (including the JCC inversion persisted into the CFG)
// is local to fn or to the worker-owned scratch — shared context state
// is only read (the line table) — so Rewrite safely calls it
// concurrently, one worker per function, with all cross-function address
// resolution deferred to the emitter.
func (ctx *BinaryContext) emitFunction(fn *BinaryFunction, sc *emitScratch) (frags []fragment, blockOff []uint32, err error) {
	if len(fn.Blocks) > obj.MaxFuncBlocks {
		return nil, nil, fmt.Errorf("core: %s: %d blocks exceeds the %d sym-ID limit", fn.Name, len(fn.Blocks), obj.MaxFuncBlocks)
	}
	// Partition the layout into the hot and cold block lists.
	var parts [2][]*BasicBlock
	maxIdx := 0
	for _, b := range fn.Blocks {
		s := 0
		if b.IsCold && fn.IsSplit {
			s = 1
		}
		parts[s] = append(parts[s], b)
		maxIdx = max(maxIdx, b.Index)
	}
	if len(parts[0]) == 0 || !parts[0][0].IsEntry {
		return nil, nil, fmt.Errorf("core: %s: entry block must lead the hot fragment", fn.Name)
	}
	blockOff = make([]uint32, maxIdx+1)
	for i := range blockOff {
		blockOff[i] = noBlockOff
	}
	n := 1
	if len(parts[1]) > 0 {
		n = 2
	}
	frags = make([]fragment, n)
	for s := range frags {
		if frags[s], err = ctx.emitFragment(fn, parts[s], s, blockOff, sc); err != nil {
			return nil, nil, err
		}
	}
	return frags, blockOff, nil
}

// symID packs a referenced function into an emission relocation symbol.
func (r FuncRef) symID() obj.SymID { return obj.FuncSym(int(r) - 1) }

// emitFragment assembles blocks, in order, into fragment s of fn and
// enters their offsets into the function's block-offset table.
func (ctx *BinaryContext) emitFragment(fn *BinaryFunction, blocks []*BasicBlock, s int, blockOff []uint32, sc *emitScratch) (fragment, error) {
	sc.reset(fn, ctx.LineTable, len(blockOff))
	a := &sc.asm
	for _, b := range blocks {
		sc.labels[b.Index] = a.NewLabel()
	}
	for bi, b := range blocks {
		a.Bind(sc.labels[b.Index])
		var next *BasicBlock
		if bi+1 < len(blocks) {
			next = blocks[bi+1]
		}
		// The control-flow tail is the final instruction if it is a
		// branch, return or trap; everything before it is body.
		body := len(b.Insts)
		if in := b.LastInst(); in != nil && in.I.IsTerminator() {
			body--
		}
		for i := 0; i < body; i++ {
			sc.emitInst(&b.Insts[i])
		}
		if body < len(b.Insts) {
			if err := sc.emitTail(b, &b.Insts[body], next); err != nil {
				return fragment{}, err
			}
		} else if len(b.Succs) == 1 && b.Succs[0].To != next {
			// Fall-through block whose successor is not next in this
			// fragment: synthesize a jump.
			sc.branchTo(isa.NewInst(isa.JMP), b.Succs[0].To)
		}
	}
	res, err := a.Finish(0)
	if err != nil {
		return fragment{}, fmt.Errorf("core: emitting %s: %w", fn.Name, err)
	}
	for _, b := range blocks {
		blockOff[b.Index] = res.LabelOffs[sc.labels[b.Index]] | uint32(s)<<blockOffBits
	}
	frag := sc.materialize(res)
	frag.fn, frag.cold = fn, s == 1
	return frag, nil
}

// anchor marks the current position as the emission site of the original
// instruction at inAddr (0 = synthesized, no anchor).
func (sc *emitScratch) anchor(inAddr uint64) {
	if inAddr == 0 {
		return
	}
	l := sc.asm.NewLabel()
	sc.asm.Bind(l)
	sc.anchorMarks = append(sc.anchorMarks, anchorMark{label: l, inAddr: inAddr})
}

// cfiDiff emits the CFI instructions that take the running unwind state
// to the function's interned state idx. Consecutive instructions mostly
// share a state, so the diff is paid per change of index.
func (sc *emitScratch) cfiDiff(idx int32) {
	if idx == sc.runningIdx {
		return
	}
	target := sc.fn.StateAt(idx)
	if target == nil {
		return
	}
	sc.runningIdx = idx
	diff := cfi.StateDiff(&sc.running, target)
	if len(diff) == 0 {
		return
	}
	l := sc.asm.NewLabel()
	sc.asm.Bind(l)
	for _, d := range diff {
		sc.cfiMarks = append(sc.cfiMarks, cfiMark{label: l, inst: d})
	}
	sc.running = *target
}

// branchTo emits a direct branch instruction to a block, via label (same
// fragment, relaxable) or symbolic reloc (cross fragment).
func (sc *emitScratch) branchTo(inst isa.Inst, to *BasicBlock) {
	if to.Index < len(sc.labels) && sc.labels[to.Index] != asmx.None {
		sc.asm.EmitBranch(inst, sc.labels[to.Index])
		return
	}
	sc.asm.EmitRelocID(inst, obj.RelPC32, obj.BlockSym(sc.fn.ordIdx, to.Index), -4)
}

// emitInst emits one non-branch instruction with its CFI, line, anchor
// and call-site marks.
func (sc *emitScratch) emitInst(in *Inst) {
	a := &sc.asm
	sc.cfiDiff(in.CFIIdx)
	var pos srcPos
	if in.Src != 0 {
		e := &sc.lines.Entries[in.Src-1]
		pos = srcPos{file: e.File + 1, line: e.Line}
	}
	if pos != sc.lastPos {
		sc.lastPos = pos
		if in.Src != 0 {
			l := a.NewLabel()
			a.Bind(l)
			sc.lineMarks = append(sc.lineMarks, lineMark{label: l, src: in.Src})
		}
	}
	inst := in.I
	var start, end asmx.Label
	if in.LP != 0 {
		start, end = a.NewLabel(), a.NewLabel()
		a.Bind(start)
	}
	if inst.Op != isa.NOP {
		sc.anchor(in.Addr)
	}
	switch {
	case inst.Op == isa.NOP:
		// dropped
	case in.ImmSym != NoFunc:
		a.EmitRelocID(inst, relImmAbs32, in.ImmSym.symID(), 0)
	case inst.Op == isa.CALL && in.TargetSym != NoFunc:
		a.EmitRelocID(inst, obj.RelPC32, in.TargetSym.symID(), -4)
	case inst.Op == isa.CALL:
		a.EmitRelocID(inst, obj.RelPC32, obj.AbsSym(inst.TargetAddr), -4)
	case in.MemAddr() != 0:
		m := inst
		m.M.Disp = 0
		a.EmitRelocID(m, obj.RelPC32, obj.AbsSym(in.MemAddr()), -4)
	default:
		a.Emit(inst)
	}
	if in.LP != 0 {
		a.Bind(end)
		lp, action := sc.fn.LandingPad(in)
		sc.csMarks = append(sc.csMarks, csMark{start: start, end: end, lp: lp, action: action})
	}
}

// emitTail materializes b's final control-flow instruction against the
// layout: next is the block that follows b in this fragment, nil at the
// fragment's end.
func (sc *emitScratch) emitTail(b *BasicBlock, in *Inst, next *BasicBlock) error {
	a, fn := &sc.asm, sc.fn
	inst := in.I
	if !inst.IsDirectBranch() {
		// ret / repz ret / hlt / ud2, or a jump-table dispatch, emitted
		// verbatim: the table bytes are rewritten at layout time.
		sc.emitInst(in)
		return nil
	}
	sc.cfiDiff(in.CFIIdx)
	switch {
	case in.TargetSym != NoFunc:
		// Tail call to another function; a conditional one (SCTC output)
		// still needs its fall-through.
		sc.anchor(in.Addr)
		a.EmitRelocID(inst, obj.RelPC32, in.TargetSym.symID(), -4)
		if inst.Op == isa.JCC && len(b.Succs) == 1 && b.Succs[0].To != next {
			sc.branchTo(isa.NewInst(isa.JMP), b.Succs[0].To)
		}
	case inst.Op == isa.JCC:
		if len(b.Succs) != 2 {
			return fmt.Errorf("core: %s block %d: jcc with %d successors", fn.Name, b.Index, len(b.Succs))
		}
		taken, fall := b.Succs[0].To, b.Succs[1].To
		sc.anchor(in.Addr)
		switch {
		case fall == next:
			sc.branchTo(inst, taken)
		case taken == next:
			// Invert the condition so the hot target falls through;
			// persist the inversion in the CFG (edge semantics: the
			// recorded taken edge becomes the fall-through).
			in.I.Cc = inst.Cc.Invert()
			b.Succs[0], b.Succs[1] = b.Succs[1], b.Succs[0]
			sc.branchTo(in.I, fall)
		default:
			sc.branchTo(inst, taken)
			sc.branchTo(isa.NewInst(isa.JMP), fall)
		}
	default: // JMP within the function
		if len(b.Succs) != 1 {
			return fmt.Errorf("core: %s block %d: jmp with %d successors", fn.Name, b.Index, len(b.Succs))
		}
		if b.Succs[0].To != next {
			sc.anchor(in.Addr)
			sc.branchTo(inst, b.Succs[0].To)
		}
	}
	return nil
}

// materialize builds the fragment from the marks, every slice at its
// exact final size. res.LabelOffs aliases assembler scratch — it must be
// fully consumed here, before the next reset.
func (sc *emitScratch) materialize(res *asmx.Result) fragment {
	frag := fragment{Code: res.Code, Relocs: res.Relocs}
	if n := len(sc.cfiMarks); n > 0 {
		frag.CFI = make([]cfi.PCInst, 0, n)
		for _, m := range sc.cfiMarks {
			frag.CFI = append(frag.CFI, cfi.PCInst{PC: res.LabelOffs[m.label], Inst: m.inst})
		}
	}
	if n := len(sc.csMarks); n > 0 {
		frag.CallSites = make([]fragCallSite, 0, n)
		for _, m := range sc.csMarks {
			frag.CallSites = append(frag.CallSites, fragCallSite{
				Start:  res.LabelOffs[m.start],
				Len:    res.LabelOffs[m.end] - res.LabelOffs[m.start],
				LP:     m.lp,
				Action: m.action,
			})
		}
	}
	if n := len(sc.lineMarks); n > 0 {
		frag.Lines = make([]obj.LineEntry, 0, n)
		for _, m := range sc.lineMarks {
			file, line := sourceAt(sc.lines, m.src)
			if file == "" {
				continue
			}
			frag.Lines = append(frag.Lines, obj.LineEntry{Off: res.LabelOffs[m.label], File: file, Line: line})
		}
	}
	// Anchors bind in emission order, which is layout order, so offsets
	// are already ascending. The first anchor at an offset decides it (a
	// zero-size emission collapses onto its successor), and gets an entry
	// only if it is native: instructions spliced in from another function
	// keep their origin addresses, outside this function's input
	// coordinates. The entries are encoded into the worker's buffer, and
	// the fragment keeps an exactly-sized copy.
	if len(sc.anchorMarks) > 0 {
		a := &sc.bat
		a.Reset()
		fn, last := sc.fn, uint32(0)
		for i, m := range sc.anchorMarks {
			off := res.LabelOffs[m.label]
			if i > 0 && off == last {
				continue
			}
			last = off
			if fn.contains(m.inAddr) {
				a.Add(bat.Entry{OutOff: off, InOff: uint32(m.inAddr - fn.Addr)})
			}
		}
		frag.BAT = *a
		frag.BAT.Wire = bytes.Clone(a.Wire)
	}
	return frag
}
