package core

import (
	"fmt"
	"sort"

	"gobolt/internal/asmx"
	"gobolt/internal/bat"
	"gobolt/internal/cfi"
	"gobolt/internal/dbg"
	"gobolt/internal/isa"
	"gobolt/internal/obj"
	"gobolt/internal/scratch"
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
// offsets once Layout fixes them. A CFI mark is one state change: the
// instructions cfiInsts[previous mark's end:end] take effect at label.
type cfiMark struct {
	label asmx.Label
	end   int
}
type csMark struct {
	start, end asmx.Label
	lp         *BasicBlock
	action     int32
}
type lineMark struct {
	label asmx.Label
	src   int32 // lineOf the instruction that opened the line
}
type anchorMark struct {
	label  asmx.Label
	inAddr uint64
}

// srcPos is a (file, line) pair; file is one-based, zero = no source.
type srcPos struct{ file, line uint32 }

// emitScratch is one emission worker's reusable state: the assembler
// (items, labels, label-offset scratch), the hot/cold block partition,
// the block label table, the mark lists, the BAT entry buffer, the
// running state of the fragment being assembled, and the worker's slabs.
// Everything but the slabs is reset — not reallocated — between
// fragments, and what survives in a fragment is carved from the slabs,
// so steady-state emission allocates only when a slab fills. A scratch is
// owned by exactly one worker.
type emitScratch struct {
	asm         asmx.Assembler
	parts       [2][]int32   // the function's hot and cold block indices, in layout order
	labels      []asmx.Label // block Index -> label; asmx.None = not in fragment
	cfiMarks    []cfiMark
	cfiInsts    []cfi.Inst
	csMarks     []csMark
	lineMarks   []lineMark
	anchorMarks []anchorMark
	batWire     []byte // the fragment's BAT entries in wire form

	// The worker's slabs: a fragment's code and BAT wire from byteSlab,
	// and one slab for each of its other lists.
	pace      pace
	byteSlab  slab[byte]
	relocSlab slab[obj.Reloc]
	cfiSlab   slab[cfi.PCInst]
	callSlab  slab[fragCallSite]
	lineSlab  slab[obj.LineEntry]

	ctx     *BinaryContext
	fn      *BinaryFunction
	lines   *dbg.Table
	running cfi.State // unwind state in effect at the current position
	// runningIdx is the interned state (one-based) running was last set
	// from, 0 while it is still the initial state.
	runningIdx uint16
	lastPos    srcPos // a line mark opens where the (file, line) pair changes

	// lineOf's window of the line table, where the entries covering the
	// function's own bytes are, and its last answer: the entry lineSrc
	// (one-based, 0 = none) covers the lineSpan bytes from lineAddr.
	lineLo, lineHi     int
	lineAddr, lineSpan uint64
	lineSrc            int32
}

// reset prepares the scratch for one fragment of ctx's function fn with
// nBlocks label slots, reusing every backing array that is big enough.
func (sc *emitScratch) reset(ctx *BinaryContext, fn *BinaryFunction, nBlocks int) {
	sc.asm.Reset()
	sc.labels = scratch.Zeroed(sc.labels, nBlocks)
	for i := range sc.labels {
		sc.labels[i] = asmx.None
	}
	sc.cfiMarks, sc.cfiInsts = sc.cfiMarks[:0], sc.cfiInsts[:0]
	sc.csMarks = sc.csMarks[:0]
	sc.lineMarks = sc.lineMarks[:0]
	sc.anchorMarks = sc.anchorMarks[:0]
	sc.ctx, sc.fn, sc.lines = ctx, fn, ctx.LineTable
	sc.running, sc.runningIdx = cfi.InitialState(), 0
	sc.lastPos = srcPos{}
	sc.lineSpan = 0
	if lines := sc.lines; lines != nil {
		e := lines.Entries
		sc.lineLo = sort.Search(len(e), func(i int) bool { return e[i].Addr > fn.Addr })
		sc.lineHi = sc.lineLo + sort.Search(len(e)-sc.lineLo, func(i int) bool { return e[sc.lineLo+i].Addr >= fn.Addr+fn.Size })
	}
}

// lineOf returns one plus the index of the line-table entry covering the
// input address a, 0 when there is none (as BinaryFunction.lineEntry).
// Consecutive instructions mostly share a line, so it answers from the
// range the last answer covers and searches only past it: within the
// function's window of the table, or the whole table for an origin
// outside the function, a copy's.
func (sc *emitScratch) lineOf(a uint64) int32 {
	t := sc.lines
	if a == 0 || t == nil {
		return 0
	}
	if a-sc.lineAddr < sc.lineSpan {
		return sc.lineSrc
	}
	e := t.Entries
	lo, hi := 0, len(e)
	if sc.fn.contains(a) {
		lo, hi = sc.lineLo, sc.lineHi
	}
	// e[k-1] is the last entry at or before a; it covers a up to e[k].
	k := lo + sort.Search(hi-lo, func(i int) bool { return e[lo+i].Addr > a })
	start, end := uint64(0), ^uint64(0)
	if k > 0 {
		start = e[k-1].Addr
	}
	if k < len(e) {
		end = e[k].Addr
	}
	sc.lineAddr, sc.lineSpan, sc.lineSrc = start, end-start, 0
	if k > 0 && int(e[k-1].File) < len(t.Files) {
		sc.lineSrc = int32(k)
	}
	return sc.lineSrc
}

// emitShape returns what emitting fn fills — its fragment count (two
// when it has a cold block) and the length of its
// block-offset table — and its instruction count. The emitter sizes its
// tables from it before emission starts, so every function's share is a
// window of them.
func emitShape(fn *BinaryFunction) (frags, offs, insts int) {
	frags = 1
	for _, b := range fn.Blocks {
		if b.IsCold {
			frags = 2
		}
		offs = max(offs, b.Index+1)
		insts += len(b.Insts)
	}
	return frags, offs, insts
}

// emitFunction assembles the function's current block layout into machine
// code — frags, one fragment or two when it is split — and fills its
// block-offset table blockOff, both sized by emitShape: terminators are
// materialized against the layout (the fixup-branches responsibility),
// CFI is spliced by state diffing, and exception call sites are collected
// per fragment. Everything it reads and writes (including the JCC
// inversion persisted into the CFG) is local to fn, to its windows, or to
// the worker-owned scratch — shared context state is only read (the line
// table) — so Rewrite safely calls it concurrently, one worker per
// function, with all cross-function address resolution deferred to the
// emitter.
func (ctx *BinaryContext) emitFunction(fn *BinaryFunction, frags []fragment, blockOff []uint32, sc *emitScratch) error {
	if len(fn.Blocks) > obj.MaxFuncBlocks {
		return fmt.Errorf("core: %s: %d blocks exceeds the %d sym-ID limit", fn.Name, len(fn.Blocks), obj.MaxFuncBlocks)
	}
	// Partition the layout into the hot and cold block lists.
	parts := &sc.parts
	parts[0], parts[1] = parts[0][:0], parts[1][:0]
	for i, b := range fn.Blocks {
		s := 0
		if b.IsCold {
			s = 1
		}
		parts[s] = append(parts[s], int32(i))
	}
	if len(parts[0]) == 0 || !fn.Blocks[parts[0][0]].IsEntry() {
		return fmt.Errorf("core: %s: entry block must lead the hot fragment", fn.Name)
	}
	for i := range blockOff {
		blockOff[i] = noBlockOff
	}
	for s := range frags {
		var err error
		if frags[s], err = ctx.emitFragment(fn, parts[s], s, blockOff, sc); err != nil {
			return err
		}
	}
	return nil
}

// symID packs a referenced function into an emission relocation symbol.
func (r FuncRef) symID() obj.SymID { return obj.FuncSym(int(r) - 1) }

// emitFragment assembles the blocks of fn at the indices in blocks, in
// order, into fragment s and enters their offsets into the function's
// block-offset table.
func (ctx *BinaryContext) emitFragment(fn *BinaryFunction, blocks []int32, s int, blockOff []uint32, sc *emitScratch) (fragment, error) {
	sc.reset(ctx, fn, len(blockOff))
	a := &sc.asm
	for _, k := range blocks {
		sc.labels[k] = a.NewLabel()
	}
	for bi, k := range blocks {
		a.Bind(sc.labels[k])
		b := fn.Blocks[k]
		var next *BasicBlock
		if bi+1 < len(blocks) {
			next = fn.Blocks[blocks[bi+1]]
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
	size, err := a.Layout(0)
	if err != nil {
		return fragment{}, fmt.Errorf("core: emitting %s: %w", fn.Name, err)
	}
	res, err := a.Finish(sc.byteSlab.take(size.Code, &sc.pace)[:0], sc.relocSlab.take(size.Relocs, &sc.pace)[:0])
	if err != nil {
		return fragment{}, fmt.Errorf("core: emitting %s: %w", fn.Name, err)
	}
	for _, k := range blocks {
		blockOff[k] = res.LabelOffs[sc.labels[k]] | uint32(s)<<blockOffBits
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
// to the function's interned state idx (one-based). Consecutive
// instructions mostly share a state, so the diff is paid per change of
// index.
func (sc *emitScratch) cfiDiff(idx uint16) {
	if idx == sc.runningIdx {
		return
	}
	target := sc.fn.StateAt(idx)
	if target == nil {
		return
	}
	sc.runningIdx = idx
	n := len(sc.cfiInsts)
	if sc.cfiInsts = cfi.AppendStateDiff(sc.cfiInsts, &sc.running, target); len(sc.cfiInsts) == n {
		return
	}
	l := sc.asm.NewLabel()
	sc.asm.Bind(l)
	sc.cfiMarks = append(sc.cfiMarks, cfiMark{label: l, end: len(sc.cfiInsts)})
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
	src := sc.lineOf(sc.fn.origin(in))
	if src != 0 {
		e := &sc.lines.Entries[src-1]
		pos = srcPos{file: e.File + 1, line: e.Line}
	}
	if pos != sc.lastPos {
		sc.lastPos = pos
		// A source file with no name makes no line entry.
		if src != 0 && sc.lines.Files[pos.file-1] != "" {
			l := a.NewLabel()
			a.Bind(l)
			sc.lineMarks = append(sc.lineMarks, lineMark{label: l, src: src})
		}
	}
	inst := in.I
	var start, end asmx.Label
	if in.LP() != 0 {
		start, end = a.NewLabel(), a.NewLabel()
		a.Bind(start)
	}
	if inst.Op != isa.NOP {
		sc.anchor(sc.fn.InstAddr(in))
	}
	// Only a call or ICP's cmp can name a function: the lookup is skipped
	// for the rest.
	sym := NoFunc
	if inst.Op == isa.CALL || inst.Op == isa.CMPri {
		sym = sc.ctx.TargetSym(sc.fn, in)
	}
	switch {
	case inst.Op == isa.NOP:
		// dropped
	case inst.Op == isa.CMPri && sym != NoFunc:
		a.EmitRelocID(inst, relImmAbs32, sym.symID(), 0)
	case inst.Op == isa.CALL && sym != NoFunc:
		a.EmitRelocID(inst, obj.RelPC32, sym.symID(), -4)
	case inst.Op == isa.CALL:
		a.EmitRelocID(inst, obj.RelPC32, obj.AbsSym(inst.TargetAddr()), -4)
	case in.MemAddr() != 0:
		a.EmitRelocID(inst, obj.RelPC32, obj.AbsSym(in.MemAddr()), -4)
	default:
		a.Emit(inst)
	}
	if in.LP() != 0 {
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
	switch sym := sc.ctx.TargetSym(fn, in); {
	case sym != NoFunc:
		// Tail call to another function; a conditional one, as compilers
		// emit it, still needs its fall-through.
		sc.anchor(sc.fn.InstAddr(in))
		a.EmitRelocID(inst, obj.RelPC32, sym.symID(), -4)
		if inst.Op == isa.JCC && len(b.Succs) == 1 && b.Succs[0].To != next {
			sc.branchTo(isa.NewInst(isa.JMP), b.Succs[0].To)
		}
	case inst.Op == isa.JCC:
		if len(b.Succs) != 2 {
			return fmt.Errorf("core: %s block %d: jcc with %d successors", fn.Name, b.Index, len(b.Succs))
		}
		taken, fall := b.Succs[0].To, b.Succs[1].To
		sc.anchor(sc.fn.InstAddr(in))
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
			sc.anchor(sc.fn.InstAddr(in))
			sc.branchTo(inst, b.Succs[0].To)
		}
	}
	return nil
}

// materialize builds the fragment from the marks, every slice a window
// of the worker's slabs at its exact final size. res.LabelOffs aliases
// assembler scratch — it must be fully consumed here, before the next
// reset.
func (sc *emitScratch) materialize(res asmx.Result) fragment {
	frag := fragment{Code: res.Code, Relocs: res.Relocs}
	frag.CFI = sc.cfiSlab.take(len(sc.cfiInsts), &sc.pace)
	k := 0
	for _, m := range sc.cfiMarks {
		for pc := res.LabelOffs[m.label]; k < m.end; k++ {
			frag.CFI[k] = cfi.PCInst{PC: pc, Inst: sc.cfiInsts[k]}
		}
	}
	frag.CallSites = sc.callSlab.take(len(sc.csMarks), &sc.pace)
	for i, m := range sc.csMarks {
		frag.CallSites[i] = fragCallSite{
			Start:  res.LabelOffs[m.start],
			Len:    res.LabelOffs[m.end] - res.LabelOffs[m.start],
			LP:     m.lp,
			Action: m.action,
		}
	}
	frag.Lines = sc.lineSlab.take(len(sc.lineMarks), &sc.pace)
	for i, m := range sc.lineMarks {
		file, line := sourceAt(sc.lines, m.src)
		frag.Lines[i] = obj.LineEntry{Off: res.LabelOffs[m.label], File: file, Line: line}
	}
	// Anchors bind in emission order, which is layout order, so offsets
	// are already ascending. The first anchor at an offset decides it (a
	// zero-size emission collapses onto its successor), and gets an entry
	// only if it is native: instructions spliced in from another function
	// keep their origin addresses, outside this function's input
	// coordinates. The entries are encoded into the worker's buffer, held
	// in a local while the loop appends, and the fragment keeps a copy in
	// the worker's byte slab.
	if len(sc.anchorMarks) > 0 {
		w, n, prev := sc.batWire[:0], 0, bat.Entry{}
		fn, last := sc.fn, uint32(0)
		for i, m := range sc.anchorMarks {
			off := res.LabelOffs[m.label]
			if i > 0 && off == last {
				continue
			}
			last = off
			if fn.contains(m.inAddr) {
				e := bat.Entry{OutOff: off, InOff: uint32(m.inAddr - fn.Addr)}
				w, prev = bat.AppendEntry(w, prev, e), e
				n++
			}
		}
		sc.batWire = w
		frag.BAT = bat.Anchors{Wire: sc.byteSlab.clone(w, &sc.pace), N: n}
	}
	return frag
}
