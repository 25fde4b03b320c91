package cc

import (
	"fmt"

	"gobolt/internal/asmx"
	"gobolt/internal/cfi"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/obj"
)

// Scratch registers reserved for lowering; MIR never uses them, so they
// are dead between MIR operations. gobolt's ICP pass re-verifies this with
// liveness analysis before reusing them.
const (
	scratchA = isa.R10
	scratchB = isa.R11
)

// lowerState carries assembly state. One lowerState lowers many
// functions in turn; lower resets the per-function parts, keeping their
// storage.
type lowerState struct {
	f *ir.Func
	a *asmx.Assembler
	// sharedFuncs names the functions living in shared modules (their
	// calls use PLT32).
	sharedFuncs map[string]bool

	blockLabels []asmx.Label
	endLabel    asmx.Label

	cfiMarks []cfiMark
	csMarks  []csMark
	lineMark []lineMark

	jtFixes []jtFix
	nextJT  int
}

type cfiMark struct {
	label asmx.Label
	inst  cfi.Inst
}

type csMark struct {
	start, end asmx.Label
	lp         int // block index
}

type lineMark struct {
	label asmx.Label
	file  string
	line  int32
}

type jtFix struct {
	name    string
	pic     bool
	targets []int
}

// lower compiles one function in the given block order.
func (st *lowerState) lower(f *ir.Func, order []int) (*obj.Func, []*obj.Global, error) {
	if len(order) == 0 || order[0] != 0 {
		return nil, nil, fmt.Errorf("layout must start with the entry block")
	}
	st.f, st.nextJT = f, 0
	st.a.Reset()
	st.cfiMarks, st.csMarks, st.lineMark, st.jtFixes = st.cfiMarks[:0], st.csMarks[:0], st.lineMark[:0], st.jtFixes[:0]
	st.blockLabels = st.blockLabels[:0]
	for range f.Blocks {
		st.blockLabels = append(st.blockLabels, st.a.NewLabel())
	}
	st.endLabel = st.a.NewLabel()

	hasFrame := st.needsFrame()
	pos := make([]int, len(f.Blocks)) // block -> position in order
	for idx, b := range order {
		pos[b] = idx
	}

	// Landing-pad blocks: entered from the unwinder, which restores RBP
	// but not RSP; their first instruction re-establishes RSP from RBP.
	isLandingPad := make([]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			if op.Kind == ir.OpCall || op.Kind == ir.OpCallIndirect {
				if op.LandingPad > 0 {
					isLandingPad[op.LandingPad] = true
				}
			}
		}
		if b.Term.Kind == ir.TermThrow && b.Term.LandingPad > 0 {
			isLandingPad[b.Term.LandingPad] = true
		}
	}

	// Which blocks are loop headers (branched to from later positions)?
	isLoopHead := make([]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range f.Successors(b) {
			if pos[s] < pos[b.Index] {
				isLoopHead[s] = true
			}
		}
	}

	for idx, bi := range order {
		b := f.Blocks[bi]
		if idx > 0 && isLoopHead[bi] {
			st.a.Align(blockAlign)
		}
		st.a.Bind(st.blockLabels[bi])
		if bi == 0 && hasFrame {
			st.emitPrologue()
		}
		if isLandingPad[bi] {
			lea := isa.NewInst(isa.LEA)
			lea.R1 = isa.RSP
			lea.M = isa.Mem{Base: isa.RBP, Index: isa.NoReg, Scale: 1}
			lea.SetDisp(int32(-8 * (len(f.SavedRegs) + f.FrameSlots)))
			st.a.Emit(lea)
		}
		st.markLine(b.Term.File, b.Line)
		for oi := range b.Ops {
			if err := st.lowerOp(&b.Ops[oi]); err != nil {
				return nil, nil, err
			}
		}
		var next int = -1
		if idx+1 < len(order) {
			next = order[idx+1]
		}
		if err := st.lowerTerm(b, next, hasFrame); err != nil {
			return nil, nil, err
		}
	}
	st.a.Bind(st.endLabel)

	if _, err := st.a.Layout(0); err != nil {
		return nil, nil, err
	}
	res, err := st.a.Finish(nil, nil)
	if err != nil {
		return nil, nil, err
	}

	of := &obj.Func{
		Name:   f.Name,
		Bytes:  res.Code,
		Align:  funcAlign,
		Relocs: res.Relocs,
		Global: f.Global,
	}
	if len(st.cfiMarks) > 0 {
		of.CFI = make([]cfi.PCInst, len(st.cfiMarks))
		for i, m := range st.cfiMarks {
			of.CFI[i] = cfi.PCInst{PC: res.LabelOffs[m.label], Inst: m.inst}
		}
	}
	if len(st.csMarks) > 0 {
		of.CallSites = make([]obj.CallSite, len(st.csMarks))
		for i, m := range st.csMarks {
			start := res.LabelOffs[m.start]
			end := res.LabelOffs[m.end]
			of.CallSites[i] = obj.CallSite{
				Start: start, Len: end - start,
				LPOff: res.LabelOffs[st.blockLabels[m.lp]], Action: 1,
			}
		}
	}
	if len(st.lineMark) > 0 {
		of.Lines = make([]obj.LineEntry, len(st.lineMark))
		for i, m := range st.lineMark {
			of.Lines[i] = obj.LineEntry{Off: res.LabelOffs[m.label], File: m.file, Line: m.line}
		}
	}

	// Jump tables become globals whose entries point back into the function.
	var globals []*obj.Global
	for _, jt := range st.jtFixes {
		g := &obj.Global{Name: jt.name, Align: 8}
		if jt.pic {
			g.NoEmitRelocs = true // paper §3.2: PIC jump-table relocs vanish
			g.Data = make([]byte, 4*len(jt.targets))
			for i, t := range jt.targets {
				g.Relocs = append(g.Relocs, obj.Reloc{
					Off: uint32(4 * i), Type: obj.RelJT32,
					Sym: f.Name, Addend: int64(res.LabelOffs[st.blockLabels[t]]),
				})
			}
		} else {
			g.Data = make([]byte, 8*len(jt.targets))
			for i, t := range jt.targets {
				g.Relocs = append(g.Relocs, obj.Reloc{
					Off: uint32(8 * i), Type: obj.RelAbs64,
					Sym: f.Name, Addend: int64(res.LabelOffs[st.blockLabels[t]]),
				})
			}
		}
		globals = append(globals, g)
	}
	return of, globals, nil
}

// needsFrame reports whether the function requires a full rbp frame:
// any locals, callee-saved spills, or calls (so the unwinder can rely on
// an rbp-based CFA at every call site).
func (st *lowerState) needsFrame() bool {
	f := st.f
	if f.FrameSlots > 0 || len(f.SavedRegs) > 0 {
		return true
	}
	for _, b := range f.Blocks {
		for _, op := range b.Ops {
			if op.Kind == ir.OpCall || op.Kind == ir.OpCallIndirect {
				return true
			}
		}
	}
	return false
}

func (st *lowerState) markCFI(in cfi.Inst) {
	l := st.a.NewLabel()
	st.a.Bind(l)
	st.cfiMarks = append(st.cfiMarks, cfiMark{label: l, inst: in})
}

func (st *lowerState) markLine(file string, line int32) {
	l := st.a.NewLabel()
	st.a.Bind(l)
	st.lineMark = append(st.lineMark, lineMark{label: l, file: file, line: line})
}

func reg2(op isa.Op, dst, src isa.Reg) isa.Inst {
	i := isa.NewInst(op)
	i.R1, i.R2 = dst, src
	return i
}

func regImm(op isa.Op, dst isa.Reg, imm int64) isa.Inst {
	i := isa.NewInst(op)
	i.R1 = dst
	i.SetImm(imm)
	return i
}

func (st *lowerState) emitPrologue() {
	f := st.f
	st.a.Emit(func() isa.Inst { i := isa.NewInst(isa.PUSH); i.R1 = isa.RBP; return i }())
	st.markCFI(cfi.Inst{Kind: cfi.OpDefCfaOffset, Off: 16})
	st.markCFI(cfi.Inst{Kind: cfi.OpOffset, Reg: uint8(isa.RBP), Off: -16})
	st.a.Emit(reg2(isa.MOVrr, isa.RBP, isa.RSP))
	st.markCFI(cfi.Inst{Kind: cfi.OpDefCfaRegister, Reg: uint8(isa.RBP)})
	for i, r := range f.SavedRegs {
		st.a.Emit(func() isa.Inst { p := isa.NewInst(isa.PUSH); p.R1 = r; return p }())
		st.markCFI(cfi.Inst{Kind: cfi.OpOffset, Reg: uint8(r), Off: int32(-24 - 8*i)})
	}
	if f.FrameSlots > 0 {
		st.a.Emit(regImm(isa.SUBri, isa.RSP, int64(8*f.FrameSlots)))
	}
}

// emitEpilogue tears the frame down and restores the steady-state CFI for
// whatever block follows in layout order.
func (st *lowerState) emitEpilogue() {
	f := st.f
	if f.FrameSlots > 0 {
		st.a.Emit(regImm(isa.ADDri, isa.RSP, int64(8*f.FrameSlots)))
	}
	for i := len(f.SavedRegs) - 1; i >= 0; i-- {
		st.a.Emit(func() isa.Inst { p := isa.NewInst(isa.POP); p.R1 = f.SavedRegs[i]; return p }())
	}
	st.a.Emit(func() isa.Inst { p := isa.NewInst(isa.POP); p.R1 = isa.RBP; return p }())
	// After pop rbp the frame is gone.
	st.markCFI(cfi.Inst{Kind: cfi.OpDefCfa, Reg: uint8(isa.RSP), Off: 8})
	st.markCFI(cfi.Inst{Kind: cfi.OpRestore, Reg: uint8(isa.RBP)})
	for _, r := range f.SavedRegs {
		st.markCFI(cfi.Inst{Kind: cfi.OpRestore, Reg: uint8(r)})
	}
}

// restoreSteadyCFI re-asserts the in-frame CFI state; it must be recorded
// at the offset right after a ret so later blocks evaluate correctly.
func (st *lowerState) restoreSteadyCFI() {
	f := st.f
	st.markCFI(cfi.Inst{Kind: cfi.OpDefCfa, Reg: uint8(isa.RBP), Off: 16})
	st.markCFI(cfi.Inst{Kind: cfi.OpOffset, Reg: uint8(isa.RBP), Off: -16})
	for i, r := range f.SavedRegs {
		st.markCFI(cfi.Inst{Kind: cfi.OpOffset, Reg: uint8(r), Off: int32(-24 - 8*i)})
	}
}

// memOp assembles Sym+SymOff(+index*scale) addressing: RIP-relative when
// no index, otherwise via a scratch LEA.
func (st *lowerState) memInst(op isa.Op, valReg isa.Reg, o *ir.Op) {
	if o.Src == isa.NoReg {
		i := isa.NewInst(op)
		i.R1 = valReg
		i.M = isa.Mem{Base: isa.NoReg, Index: isa.NoReg, RIP: true}
		st.a.EmitReloc(i, obj.RelPC32, o.Sym, o.SymOff-4)
		return
	}
	lea := isa.NewInst(isa.LEA)
	lea.R1 = scratchB
	lea.M = isa.Mem{Base: isa.NoReg, Index: isa.NoReg, RIP: true}
	st.a.EmitReloc(lea, obj.RelPC32, o.Sym, o.SymOff-4)
	i := isa.NewInst(op)
	i.R1 = valReg
	i.M = isa.Mem{Base: scratchB, Index: o.Src, Scale: o.Scale}
	if i.M.Scale == 0 {
		i.M.Scale = 1
	}
	st.a.Emit(i)
}

func (st *lowerState) lowerOp(o *ir.Op) error {
	st.markLine(o.File, o.Line)
	switch o.Kind {
	case ir.OpMovImm:
		if o.Imm >= -1<<31 && o.Imm < 1<<31 {
			st.a.Emit(regImm(isa.MOVri, o.Dst, o.Imm))
		} else {
			st.a.Emit(regImm(isa.MOVabs, o.Dst, o.Imm))
		}
	case ir.OpMov:
		st.a.Emit(reg2(isa.MOVrr, o.Dst, o.Src))
	case ir.OpAdd:
		st.a.Emit(reg2(isa.ADDrr, o.Dst, o.Src))
	case ir.OpAddImm:
		st.a.Emit(regImm(isa.ADDri, o.Dst, o.Imm))
	case ir.OpSub:
		st.a.Emit(reg2(isa.SUBrr, o.Dst, o.Src))
	case ir.OpMul:
		st.a.Emit(reg2(isa.IMULrr, o.Dst, o.Src))
	case ir.OpXor:
		st.a.Emit(reg2(isa.XORrr, o.Dst, o.Src))
	case ir.OpAndImm:
		st.a.Emit(regImm(isa.ANDri, o.Dst, o.Imm))
	case ir.OpShlImm:
		st.a.Emit(regImm(isa.SHLri, o.Dst, o.Imm))
	case ir.OpShrImm:
		st.a.Emit(regImm(isa.SHRri, o.Dst, o.Imm))
	case ir.OpLoad:
		st.memInst(isa.MOVrm, o.Dst, o)
	case ir.OpLoadByte:
		st.memInst(isa.MOVZXBrm, o.Dst, o)
	case ir.OpStore:
		st.memInst(isa.MOVmr, o.Dst, o)
	case ir.OpLoadLocal, ir.OpStoreLocal:
		slotOff := int32(-8*len(st.f.SavedRegs) - 8*int(o.Imm+1) - 8)
		i := isa.NewInst(isa.MOVrm)
		if o.Kind == ir.OpStoreLocal {
			i = isa.NewInst(isa.MOVmr)
		}
		i.R1 = o.Dst
		i.M = isa.Mem{Base: isa.RBP, Index: isa.NoReg, Scale: 1}
		i.SetDisp(slotOff)
		st.a.Emit(i)
	case ir.OpCall:
		if o.SpillReg != isa.NoReg {
			st.a.Emit(func() isa.Inst { p := isa.NewInst(isa.PUSH); p.R1 = o.SpillReg; return p }())
		}
		st.emitCall(o.Callee, o.LandingPad)
		if o.SpillReg != isa.NoReg {
			st.a.Emit(func() isa.Inst { p := isa.NewInst(isa.POP); p.R1 = o.SpillReg; return p }())
		}
	case ir.OpCallIndirect:
		lea := isa.NewInst(isa.LEA)
		lea.R1 = scratchB
		lea.M = isa.Mem{Base: isa.NoReg, Index: isa.NoReg, RIP: true}
		st.a.EmitReloc(lea, obj.RelPC32, o.Sym, o.SymOff-4)
		mov := isa.NewInst(isa.MOVrm)
		mov.R1 = scratchA
		mov.M = isa.Mem{Base: scratchB, Index: o.Src, Scale: 8}
		st.a.Emit(mov)
		call := isa.NewInst(isa.CALLr)
		call.R1 = scratchA
		st.wrapCallSite(o.LandingPad, func() { st.a.Emit(call) })
	default:
		return fmt.Errorf("cc: unknown op kind %d", o.Kind)
	}
	return nil
}

// emitCall emits a direct call with optional exception call-site entry.
func (st *lowerState) emitCall(callee string, lp int) {
	relType := obj.RelPC32
	if st.calleeShared(callee) {
		relType = obj.RelPLT32
	}
	st.wrapCallSite(lp, func() {
		st.a.EmitReloc(isa.NewInst(isa.CALL), relType, callee, -4)
	})
}

// calleeShared reports whether callee lives in a shared module.
func (st *lowerState) calleeShared(callee string) bool {
	return st.sharedFuncs[callee]
}

// wrapCallSite brackets emit() with labels to build an LSDA entry.
func (st *lowerState) wrapCallSite(lp int, emit func()) {
	if lp <= 0 {
		emit()
		return
	}
	start := st.a.NewLabel()
	end := st.a.NewLabel()
	st.a.Bind(start)
	emit()
	st.a.Bind(end)
	st.csMarks = append(st.csMarks, csMark{start: start, end: end, lp: lp})
}

func (st *lowerState) lowerTerm(b *ir.Block, next int, hasFrame bool) error {
	t := &b.Term
	st.markLine(t.File, t.Line)
	emitJump := func(target int) {
		if target != next {
			st.a.EmitBranch(isa.NewInst(isa.JMP), st.blockLabels[target])
		}
	}
	switch t.Kind {
	case ir.TermJump:
		emitJump(t.Then)
	case ir.TermBranch:
		if t.CmpUseReg {
			st.a.Emit(reg2(isa.CMPrr, t.CmpReg, t.CmpReg2))
		} else {
			st.a.Emit(regImm(isa.CMPri, t.CmpReg, t.CmpImm))
		}
		jcc := isa.NewInst(isa.JCC)
		switch {
		case t.Then == next:
			jcc.Cc = t.Cc.Invert()
			st.a.EmitBranch(jcc, st.blockLabels[t.Else])
		case t.Else == next:
			jcc.Cc = t.Cc
			st.a.EmitBranch(jcc, st.blockLabels[t.Then])
		default:
			jcc.Cc = t.Cc
			st.a.EmitBranch(jcc, st.blockLabels[t.Then])
			st.a.EmitBranch(isa.NewInst(isa.JMP), st.blockLabels[t.Else])
		}
	case ir.TermSwitch:
		st.nextJT++
		jt := jtFix{
			name:    fmt.Sprintf("%s.JT%d", st.f.Name, st.nextJT),
			pic:     t.PIC,
			targets: append([]int(nil), t.Targets...),
		}
		st.jtFixes = append(st.jtFixes, jt)
		lea := isa.NewInst(isa.LEA)
		lea.R1 = scratchB
		lea.M = isa.Mem{Base: isa.NoReg, Index: isa.NoReg, RIP: true}
		st.a.EmitReloc(lea, obj.RelPC32, jt.name, -4)
		if t.PIC {
			mov := isa.NewInst(isa.MOVSXDrm)
			mov.R1 = scratchA
			mov.M = isa.Mem{Base: scratchB, Index: t.IndexReg, Scale: 4}
			st.a.Emit(mov)
			st.a.Emit(reg2(isa.ADDrr, scratchA, scratchB))
			jmp := isa.NewInst(isa.JMPr)
			jmp.R1 = scratchA
			st.a.Emit(jmp)
		} else {
			jmp := isa.NewInst(isa.JMPm)
			jmp.M = isa.Mem{Base: scratchB, Index: t.IndexReg, Scale: 8}
			st.a.Emit(jmp)
		}
	case ir.TermReturn:
		if hasFrame {
			st.emitEpilogue()
		}
		if st.f.RepzRet {
			st.a.Emit(isa.NewInst(isa.REPZRET))
		} else {
			st.a.Emit(isa.NewInst(isa.RET))
		}
		if hasFrame {
			st.restoreSteadyCFI()
		}
	case ir.TermTailCall:
		relType := obj.RelPC32
		if st.calleeShared(t.Callee) {
			relType = obj.RelPLT32
		}
		st.a.EmitReloc(isa.NewInst(isa.JMP), relType, t.Callee, -4)
	case ir.TermTailIndirect:
		// jmp *(table + idx*8): gobolt cannot bound this target set, so
		// the containing function becomes non-simple (paper §6.4).
		lea := isa.NewInst(isa.LEA)
		lea.R1 = scratchB
		lea.M = isa.Mem{Base: isa.NoReg, Index: isa.NoReg, RIP: true}
		st.a.EmitReloc(lea, obj.RelPC32, t.Callee, -4)
		mov := isa.NewInst(isa.MOVrm)
		mov.R1 = scratchA
		mov.M = isa.Mem{Base: scratchB, Index: t.IndexReg, Scale: 8}
		st.a.Emit(mov)
		jmp := isa.NewInst(isa.JMPr)
		jmp.R1 = scratchA
		st.a.Emit(jmp)
	case ir.TermThrow:
		st.wrapCallSite(t.LandingPad, func() {
			st.a.EmitReloc(isa.NewInst(isa.CALL), obj.RelPC32, "__throw", -4)
		})
	case ir.TermExit:
		st.a.Emit(isa.NewInst(isa.HLT))
	default:
		return fmt.Errorf("cc: unknown terminator %d", t.Kind)
	}
	return nil
}
