package core

//boltvet:hot-path per-function code emission, scrubbed to zero allocations per function in PR 6

import (
	"fmt"

	"gobolt/internal/asmx"
	"gobolt/internal/cfi"
	"gobolt/internal/isa"
	"gobolt/internal/obj"
)

// Emission relocation symbol encoding. Emitted code references targets
// symbolically until the whole-binary layout is fixed: a packed
// obj.SymID names a function entry (by ordinal, following ICF folds), a
// basic block (ordinal plus block index), or an absolute address (data,
// PLT stubs, unmoved code). The packed IDs replace the old
// "F:<name>"/"B:<name>:<idx>"/"A:<hex>" string symbols, which allocated
// a string per relocation at emission and re-parsed it per relocation at
// patch time. Construction and inspection go through the internal/obj
// helpers only (boltvet's symid analyzer enforces this).

// relImmAbs32 marks an emission relocation whose 4 patched bytes hold an
// absolute 32-bit address (ICP immediates) rather than a PC32 value.
const relImmAbs32 uint32 = 900

// fragCallSite is an LSDA entry before landing-pad addresses are known.
type fragCallSite struct {
	Start, Len uint32
	LP         *BasicBlock
	Action     int32
}

// batAnchor maps one emitted instruction's output offset back to its
// original input address (the raw material of the BAT table).
type batAnchor struct {
	Off    uint32
	InAddr uint64
}

// noBlockOff marks "block not in this fragment" in emittedFrag.BlockOffs.
const noBlockOff = ^uint32(0)

// emittedFrag is one assembled function fragment (hot or cold).
type emittedFrag struct {
	Code   []byte
	Relocs []obj.Reloc
	// BlockOffs maps block Index -> code offset within the fragment
	// (noBlockOff for blocks of the other fragment).
	BlockOffs []uint32
	CFI       []cfi.PCInst
	CallSites []fragCallSite
	Lines     []obj.LineEntry
	// Anchors records, for every emitted instruction that originated in
	// the input binary, (output offset within the fragment, original
	// address). Sorted by Off; synthesized instructions have no anchor.
	Anchors []batAnchor
}

// blockOff returns the fragment-relative offset of block idx.
func (frag *emittedFrag) blockOff(idx int) (uint32, bool) {
	if idx < 0 || idx >= len(frag.BlockOffs) || frag.BlockOffs[idx] == noBlockOff {
		return 0, false
	}
	return frag.BlockOffs[idx], true
}

// emitted bundles both fragments of a function.
type emitted struct {
	fn   *BinaryFunction
	Hot  *emittedFrag
	Cold *emittedFrag // nil when not split
}

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

// emitScratch is one emission worker's reusable state: the assembler
// (items, labels, label-offset scratch), the block label table, and the
// four mark lists. Everything is reset — not reallocated — between
// functions, so steady-state emission allocates only what survives in
// the emitted fragments. A scratch is owned by exactly one worker.
type emitScratch struct {
	asm         asmx.Assembler
	labels      []asmx.Label // block Index -> label; asmx.None = not in fragment
	cfiMarks    []cfiMark
	csMarks     []csMark
	lineMarks   []lineMark
	anchorMarks []anchorMark
}

// resetLabels returns a label slice of length n filled with asmx.None,
// reusing s's backing array when it is big enough.
func resetLabels(s []asmx.Label, n int) []asmx.Label {
	if cap(s) < n {
		s = make([]asmx.Label, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = asmx.None
	}
	return s
}

// fragmentBlocks partitions the layout into hot and cold lists.
func fragmentBlocks(fn *BinaryFunction) (hot, cold []*BasicBlock) {
	for _, b := range fn.Blocks {
		if b.IsCold && fn.IsSplit {
			cold = append(cold, b)
		} else {
			hot = append(hot, b)
		}
	}
	return
}

// emitFunction assembles the function's current block layout into machine
// code: terminators are materialized against the layout (the
// fixup-branches responsibility), CFI is spliced by state diffing, and
// exception call sites are collected per fragment. Everything it reads
// and writes (including the JCC inversion persisted into the CFG) is
// local to fn or to the worker-owned scratch — shared context state is
// only read (the line table) — so Rewrite safely calls it
// concurrently, one worker per function, with all cross-function address
// resolution deferred to the serial layout step.
func (ctx *BinaryContext) emitFunction(fn *BinaryFunction, sc *emitScratch) (*emitted, error) {
	if len(fn.Blocks) > obj.MaxFuncBlocks {
		return nil, fmt.Errorf("core: %s: %d blocks exceeds the %d sym-ID limit", fn.Name, len(fn.Blocks), obj.MaxFuncBlocks)
	}
	hot, cold := fragmentBlocks(fn)
	if len(hot) == 0 || !hot[0].IsEntry {
		return nil, fmt.Errorf("core: %s: entry block must lead the hot fragment", fn.Name)
	}
	out := &emitted{fn: fn}
	var err error
	out.Hot, err = ctx.emitFragment(fn, hot, sc)
	if err != nil {
		return nil, err
	}
	if len(cold) > 0 {
		out.Cold, err = ctx.emitFragment(fn, cold, sc)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// symID packs a referenced function into an emission relocation symbol.
func (r FuncRef) symID() obj.SymID { return obj.FuncSym(int(r) - 1) }

func (ctx *BinaryContext) emitFragment(fn *BinaryFunction, blocks []*BasicBlock, sc *emitScratch) (*emittedFrag, error) {
	a := &sc.asm
	a.Reset()
	ord := fn.ordIdx

	maxIdx := 0
	for _, b := range blocks {
		if b.Index > maxIdx {
			maxIdx = b.Index
		}
	}
	sc.labels = resetLabels(sc.labels, maxIdx+1)
	labels := sc.labels
	for _, b := range blocks {
		labels[b.Index] = a.NewLabel()
	}

	sc.cfiMarks = sc.cfiMarks[:0]
	sc.csMarks = sc.csMarks[:0]
	sc.lineMarks = sc.lineMarks[:0]
	sc.anchorMarks = sc.anchorMarks[:0]

	// anchor marks the current position as the emission site of the
	// original instruction at inAddr (0 = synthesized, no anchor).
	anchor := func(inAddr uint64) {
		if inAddr == 0 {
			return
		}
		l := a.NewLabel()
		a.Bind(l)
		sc.anchorMarks = append(sc.anchorMarks, anchorMark{label: l, inAddr: inAddr})
	}

	running := cfi.InitialState()
	// A line mark opens where the (file, line) pair changes.
	type srcPos struct{ file, line uint32 } // file is one-based, zero = no source
	var lastPos srcPos

	emitCFIDiff := func(target *cfi.State) {
		if target == nil {
			return
		}
		diff := cfi.StateDiff(&running, target)
		if len(diff) == 0 {
			return
		}
		l := a.NewLabel()
		a.Bind(l)
		for _, d := range diff {
			sc.cfiMarks = append(sc.cfiMarks, cfiMark{label: l, inst: d})
		}
		running = *target
	}

	// branchTo emits a direct branch instruction to a block, via label
	// (same fragment, relaxable) or symbolic reloc (cross fragment).
	branchTo := func(inst isa.Inst, to *BasicBlock) {
		if to.Index < len(labels) && labels[to.Index] != asmx.None {
			a.EmitBranch(inst, labels[to.Index])
			return
		}
		a.EmitRelocID(inst, obj.RelPC32, obj.BlockSym(ord, to.Index), -4)
	}

	for bi, b := range blocks {
		a.Bind(labels[b.Index])
		var next *BasicBlock
		if bi+1 < len(blocks) {
			next = blocks[bi+1]
		}

		// Determine where the control-flow tail begins: the final
		// instruction if it is a branch/return; everything before it is
		// body.
		nInsts := len(b.Insts)
		tail := -1
		if nInsts > 0 && b.Insts[nInsts-1].I.IsBranch() {
			tail = nInsts - 1
		} else if nInsts > 0 {
			op := b.Insts[nInsts-1].I.Op
			if op == isa.HLT || op == isa.UD2 {
				tail = nInsts - 1
			}
		}

		emitOne := func(in *Inst) {
			emitCFIDiff(fn.StateAt(in.CFIIdx))
			var pos srcPos
			if in.Src != 0 {
				e := &ctx.LineTable.Entries[in.Src-1]
				pos = srcPos{file: e.File + 1, line: e.Line}
			}
			if pos != lastPos {
				lastPos = pos
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
				anchor(in.Addr)
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
			case inst.HasMem() && inst.M.RIP && in.MemTarget != 0:
				m := inst
				m.M.Disp = 0
				a.EmitRelocID(m, obj.RelPC32, obj.AbsSym(in.MemTarget), -4)
			default:
				a.Emit(inst)
			}
			if in.LP != 0 {
				a.Bind(end)
				lp, action := fn.LandingPad(in)
				sc.csMarks = append(sc.csMarks, csMark{start: start, end: end, lp: lp, action: action})
			}
		}

		bodyEnd := nInsts
		if tail >= 0 {
			bodyEnd = tail
		}
		for i := 0; i < bodyEnd; i++ {
			emitOne(&b.Insts[i])
		}

		// Control-flow tail, materialized against the layout.
		if tail < 0 {
			// Fall-through block: synthesize a jump if the successor is
			// not next in this fragment.
			if len(b.Succs) == 1 && b.Succs[0].To != next {
				branchTo(isa.NewInst(isa.JMP), b.Succs[0].To)
			}
			continue
		}
		in := &b.Insts[tail]
		emitCFIDiff(fn.StateAt(in.CFIIdx))
		inst := in.I
		switch {
		case inst.Op == isa.JCC && in.TargetSym != NoFunc:
			// Conditional tail call (SCTC output).
			anchor(in.Addr)
			a.EmitRelocID(inst, obj.RelPC32, in.TargetSym.symID(), -4)
			if len(b.Succs) == 1 && b.Succs[0].To != next {
				branchTo(isa.NewInst(isa.JMP), b.Succs[0].To)
			}
		case inst.Op == isa.JCC:
			if len(b.Succs) != 2 {
				return nil, fmt.Errorf("core: %s block %d: jcc with %d successors", fn.Name, b.Index, len(b.Succs))
			}
			taken, fall := b.Succs[0].To, b.Succs[1].To
			anchor(in.Addr)
			switch {
			case fall == next:
				branchTo(inst, taken)
			case taken == next:
				// Invert the condition so the hot target falls through;
				// persist the inversion in the CFG (edge semantics: the
				// recorded taken edge becomes the fall-through).
				in.I.Cc = inst.Cc.Invert()
				b.Succs[0], b.Succs[1] = b.Succs[1], b.Succs[0]
				branchTo(in.I, fall)
			default:
				branchTo(inst, taken)
				branchTo(isa.NewInst(isa.JMP), fall)
			}
		case inst.Op == isa.JMP && in.TargetSym != NoFunc:
			// Tail call to another function.
			anchor(in.Addr)
			a.EmitRelocID(inst, obj.RelPC32, in.TargetSym.symID(), -4)
		case inst.Op == isa.JMP:
			if len(b.Succs) != 1 {
				return nil, fmt.Errorf("core: %s block %d: jmp with %d successors", fn.Name, b.Index, len(b.Succs))
			}
			if b.Succs[0].To != next {
				anchor(in.Addr)
				branchTo(inst, b.Succs[0].To)
			}
		case inst.IsIndirectBranch():
			// Jump-table dispatch: emit verbatim; the table bytes are
			// rewritten at layout time.
			emitOne(in)
		default:
			// ret / repz ret / hlt / ud2
			emitOne(in)
		}
	}

	res, err := a.Finish(0)
	if err != nil {
		return nil, fmt.Errorf("core: emitting %s: %w", fn.Name, err)
	}
	// Materialize the fragment from the marks, every slice at its exact
	// final size. res.LabelOffs aliases assembler scratch — it must be
	// fully consumed here, before the next Reset.
	frag := &emittedFrag{
		Code:      res.Code,
		Relocs:    res.Relocs,
		BlockOffs: make([]uint32, maxIdx+1),
	}
	for i := range frag.BlockOffs {
		frag.BlockOffs[i] = noBlockOff
	}
	for _, b := range blocks {
		frag.BlockOffs[b.Index] = res.LabelOffs[labels[b.Index]]
	}
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
			file, line := sourceAt(ctx.LineTable, m.src)
			if file == "" {
				continue
			}
			frag.Lines = append(frag.Lines, obj.LineEntry{Off: res.LabelOffs[m.label], File: file, Line: line})
		}
	}
	// Anchors bind in emission order, which is layout order, so offsets
	// are already ascending; keep the first anchor at any offset (a
	// zero-size emission collapses onto its successor).
	if n := len(sc.anchorMarks); n > 0 {
		frag.Anchors = make([]batAnchor, 0, n)
		for _, m := range sc.anchorMarks {
			off := res.LabelOffs[m.label]
			if n := len(frag.Anchors); n > 0 && frag.Anchors[n-1].Off == off {
				continue
			}
			frag.Anchors = append(frag.Anchors, batAnchor{Off: off, InAddr: m.inAddr})
		}
	}
	return frag, nil
}
