package passes

import (
	"gobolt/internal/core"
	"gobolt/internal/isa"
)

// StripRepRet rewrites `repz retq` (a legacy AMD branch-predictor
// workaround) into plain `retq`, reclaiming one I-cache byte per return
// (Table 1, pass 1).
type StripRepRet struct{}

// Name implements core.FunctionPass.
func (StripRepRet) Name() string { return "strip-rep-ret" }

// RunOnFunction implements core.FunctionPass.
func (StripRepRet) RunOnFunction(fc *core.FuncCtx, fn *core.BinaryFunction) error {
	for _, b := range fn.Blocks {
		for i := range b.Insts {
			if b.Insts[i].I.Op == isa.REPZRET {
				b.Insts[i].I.Op = isa.RET
				fc.CountStat(core.StatStripRepRet, 1)
			}
		}
	}
	return nil
}

// Peepholes performs the simple local rewrites of Table 1 pass 4/10:
// self-move elimination and double-jump threading (a jump to a block that
// only jumps again is retargeted).
type Peepholes struct{ Round int }

// Name implements core.FunctionPass.
func (p Peepholes) Name() string { return "peepholes" }

// RunOnFunction implements core.FunctionPass.
func (p Peepholes) RunOnFunction(fc *core.FuncCtx, fn *core.BinaryFunction) error {
	for _, b := range fn.Blocks {
		// Remove mov %r,%r, compacting in place: nothing is copied until
		// the first removal, and most blocks have none.
		n := 0
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.I.Op == isa.MOVrr && in.I.R1 == in.I.R2 {
				fc.CountStat(core.StatPeepholeSelfmove, 1)
				continue
			}
			if n != i {
				b.Insts[n] = *in
			}
			n++
		}
		b.Insts = b.Insts[:n]
	}
	// Jump threading: an edge into an empty block whose only content
	// is an unconditional jump can go straight to its target.
	for _, b := range fn.Blocks {
		for k := range b.Succs {
			t := b.Succs[k].To
			for t != nil && isTrivialForwarder(t) && t.Succs[0].To != t {
				nt := t.Succs[0].To
				if nt == b {
					break
				}
				removePred(t, b)
				nt.Preds = append(nt.Preds, b)
				b.Succs[k].To = nt
				fc.CountStat(core.StatPeepholeJumpThread, 1)
				t = nt
			}
		}
	}
	// Branch targets recorded inside JCC/JMP instructions follow the
	// edges at emission; nothing else to fix here.
	return nil
}

// isTrivialForwarder reports a block with no real instructions whose sole
// successor is unconditional — landing pads are excluded (the unwinder
// targets them directly).
func isTrivialForwarder(b *core.BasicBlock) bool {
	if b.IsLP || b.IsEntry || len(b.Succs) != 1 {
		return false
	}
	for i := range b.Insts {
		if b.Insts[i].I.Op != isa.JMP && b.Insts[i].I.Op != isa.NOP {
			return false
		}
	}
	return true
}

func removePred(b *core.BasicBlock, p *core.BasicBlock) {
	for i, x := range b.Preds {
		if x == p {
			b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
			return
		}
	}
}

// UCE eliminates unreachable basic blocks (Table 1, pass 11): anything
// not reachable from the entry via control-flow or exception edges. The
// marks and the stack are keyed by BasicBlock.Index and live in the
// worker's scratch, so a function with nothing to remove allocates
// nothing.
type UCE struct{}

// Name implements core.FunctionPass.
func (UCE) Name() string { return "uce" }

// RunOnFunction implements core.FunctionPass.
func (UCE) RunOnFunction(fc *core.FuncCtx, fn *core.BinaryFunction) error {
	n := len(fn.Blocks)
	if n == 0 {
		return nil
	}
	buf := fc.Ints(2 * n)
	reach, stack := buf[:n], buf[n:n] // a block is pushed once, so n slots do
	reached := 0
	push := func(b *core.BasicBlock) {
		if b != nil && reach[b.Index] == 0 {
			reach[b.Index] = 1
			reached++
			stack = append(stack, int32(b.Index))
		}
	}
	push(fn.Blocks[0])
	for len(stack) > 0 {
		b := fn.Blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		for _, e := range b.Succs {
			push(e.To)
		}
		for _, lp := range b.LPs {
			push(lp)
		}
		if last := b.LastInst(); last != nil && last.JT != 0 {
			for _, t := range fn.JumpTable(last).Targets {
				push(t)
			}
		}
	}
	if reached == n {
		return nil
	}
	kept := fn.Blocks[:0]
	for _, b := range fn.Blocks {
		if reach[b.Index] != 0 {
			kept = append(kept, b)
		} else {
			fc.CountStat(core.StatUCEBlocks, 1)
			// Unlink from successor pred lists.
			for _, e := range b.Succs {
				removePred(e.To, b)
			}
		}
	}
	clear(fn.Blocks[len(kept):]) // drop the removed blocks' last references
	fn.Blocks = kept
	for i, b := range fn.Blocks {
		b.Index = i
	}
	return nil
}

// SimplifyROLoads converts loads from read-only data at statically known
// addresses into immediate moves, trading D-cache pressure for I-cache
// bytes only when the new encoding is not larger (Table 1, pass 6). The
// pass only reads shared state (.rodata bytes), so it parallelizes.
type SimplifyROLoads struct{}

// Name implements core.FunctionPass.
func (SimplifyROLoads) Name() string { return "simplify-ro-loads" }

// RunOnFunction implements core.FunctionPass.
func (SimplifyROLoads) RunOnFunction(fc *core.FuncCtx, fn *core.BinaryFunction) error {
	rodata := fc.File.Section(".rodata")
	if rodata == nil {
		return nil
	}
	for _, b := range fn.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.MemTarget == 0 || !rodata.Contains(in.MemTarget) {
				continue
			}
			var width int
			switch in.I.Op {
			case isa.MOVrm:
				width = 8
			case isa.MOVZXBrm:
				width = 1
			case isa.MOVSXDrm:
				width = 4
			default:
				continue
			}
			raw, err := fc.File.ReadAt(in.MemTarget, width)
			if err != nil {
				continue
			}
			var v uint64
			for k := width - 1; k >= 0; k-- {
				v = v<<8 | uint64(raw[k])
			}
			if in.I.Op == isa.MOVSXDrm {
				v = uint64(int64(int32(v)))
			}
			// Abort if the immediate form is larger (paper policy).
			imm := int64(v)
			var newInst isa.Inst
			if imm >= -1<<31 && imm < 1<<31 {
				newInst = isa.NewInst(isa.MOVri)
			} else {
				newInst = isa.NewInst(isa.MOVabs)
			}
			newInst.R1 = in.I.R1
			newInst.Imm = imm
			oldLen := int(in.Size)
			newLen := isa.InstLen(&newInst, true)
			if newLen > oldLen {
				fc.CountStat(core.StatSimplifyROLoadsAborted, 1)
				continue
			}
			// Do not simplify loads feeding jump-table dispatch.
			if in.JT != 0 {
				continue
			}
			in.I = newInst
			in.MemTarget = 0
			fc.CountStat(core.StatSimplifyROLoads, 1)
		}
	}
	return nil
}

// PLTPass removes the indirection of calls routed through PLT stubs: the
// GOT binding is known at rewrite time, so `call stub` becomes a direct
// call to the target (Table 1, pass 8). It reads only the stub map and
// the address-sorted function list and rewrites calls of the function in
// hand, so it is a function pass.
type PLTPass struct{}

// Name implements core.FunctionPass.
func (PLTPass) Name() string { return "plt" }

// RunOnFunction implements core.FunctionPass.
func (PLTPass) RunOnFunction(fc *core.FuncCtx, fn *core.BinaryFunction) error {
	if len(fc.PLTStubs) == 0 {
		return nil
	}
	for _, b := range fn.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.I.Op != isa.CALL || in.TargetSym != core.NoFunc {
				continue
			}
			target, ok := fc.PLTStubs[in.I.TargetAddr]
			if !ok {
				continue
			}
			if g := fc.FuncByAddr(target); g != nil {
				in.TargetSym = g.Ref()
				fc.CountStat(core.StatPLTCalls, 1)
			}
		}
	}
	return nil
}
