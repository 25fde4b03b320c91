package passes

import (
	"gobolt/internal/core"
	"gobolt/internal/isa"
)

// SCTC simplifies conditional tail calls (Table 1, pass 14): the shape
//
//	jcc  Lstub        ...        Lstub: jmp other_function
//
// becomes a direct conditional tail call `jcc other_function`, removing a
// taken jump from the hot path; the stub block dies if it has no other
// predecessors.
type SCTC struct{}

// Name implements core.FunctionPass.
func (SCTC) Name() string { return "sctc" }

// RunOnFunction implements core.FunctionPass.
func (SCTC) RunOnFunction(fc *core.FuncCtx, fn *core.BinaryFunction) error {
	changed := false
	var in []int32 // incoming edges per block, counted at the first candidate
	for _, b := range fn.Blocks {
		last := b.LastInst()
		if last == nil || last.I.Op != isa.JCC || last.TargetSym != core.NoFunc || len(b.Succs) != 2 {
			continue
		}
		stub := b.Succs[0].To // taken edge
		if stub == nil || stub.IsLP || stub.IsEntry {
			continue
		}
		tgt, ok := tailCallStub(stub)
		if !ok {
			continue
		}
		if in == nil {
			in = fc.Ints(len(fn.Blocks))
			for _, p := range fn.Blocks {
				for _, e := range p.Succs {
					in[e.To.Index]++
				}
			}
		}
		if in[stub.Index] != 1 {
			continue
		}
		// Retarget the conditional branch straight at the function.
		last.TargetSym = tgt
		takenCount := b.Succs[0].Count
		b.Succs = b.Succs[1:] // only the fall-through remains
		// Remove the stub block.
		for i, blk := range fn.Blocks {
			if blk == stub {
				fn.Blocks = append(fn.Blocks[:i], fn.Blocks[i+1:]...)
				break
			}
		}
		fc.CountStat(core.StatSCTC, 1)
		fc.CountStat(core.StatSCTCCount, int64(takenCount))
		changed = true
	}
	if changed {
		for i, blk := range fn.Blocks {
			blk.Index = i
		}
	}
	return nil
}

// tailCallStub matches a block that only jumps to another function.
func tailCallStub(b *core.BasicBlock) (core.FuncRef, bool) {
	if len(b.Succs) != 0 || len(b.Insts) != 1 {
		return core.NoFunc, false
	}
	in := &b.Insts[0]
	if in.I.Op == isa.JMP && in.TargetSym != core.NoFunc {
		return in.TargetSym, true
	}
	return core.NoFunc, false
}
