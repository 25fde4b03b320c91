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

// Peepholes performs the simple local rewrites of Table 1 pass 4:
// self-move elimination and double-jump threading (a jump to a block that
// only jumps again is retargeted).
type Peepholes struct{}

// Name implements core.FunctionPass.
func (Peepholes) Name() string { return "peepholes" }

// RunOnFunction implements core.FunctionPass.
func (Peepholes) RunOnFunction(fc *core.FuncCtx, fn *core.BinaryFunction) error {
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
	if b.IsLP || b.IsEntry() || len(b.Succs) != 1 {
		return false
	}
	for i := range b.Insts {
		if b.Insts[i].I.Op != isa.JMP && b.Insts[i].I.Op != isa.NOP {
			return false
		}
	}
	return true
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
	lps := fn.HasLandingPads() // without any, no call has an exception edge
	push(fn.Blocks[0])
	for len(stack) > 0 {
		b := fn.Blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		for _, e := range b.Succs {
			push(e.To)
		}
		for i := 0; lps && i < len(b.Insts); i++ {
			lp, _ := fn.LandingPad(&b.Insts[i])
			push(lp)
		}
		if last := b.LastInst(); last != nil && last.JT() != 0 {
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
		}
	}
	fc.CountStat(core.StatUCEBlocks, int64(n-len(kept)))
	clear(fn.Blocks[len(kept):]) // drop the removed blocks' last references
	fn.Blocks = kept
	for i, b := range fn.Blocks {
		b.Index = i
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
			if in.I.Op != isa.CALL {
				continue
			}
			target, ok := fc.PLTStubs[in.I.TargetAddr()]
			if !ok {
				continue
			}
			if fc.FuncByAddr(target) != nil {
				in.I.SetTargetAddr(target)
				fc.CountStat(core.StatPLTCalls, 1)
			}
		}
	}
	return nil
}
