package passes

import (
	"gobolt/internal/core"
	"gobolt/internal/isa"
)

// FrameOpts removes unnecessary caller-saved register spills around calls
// (Table 1, pass 15): the compiler sometimes emits
//
//	push %rX ; call f ; pop %rX
//
// for a caller-saved %rX that is dead after the pop. Liveness analysis
// (the dataflow framework of §4) proves deadness before deletion; it is
// asked for at the function's first such triple, so a function without
// one costs a scan of its instructions and allocates nothing.
type FrameOpts struct{}

// Name implements core.FunctionPass.
func (FrameOpts) Name() string { return "frame-opts" }

// RunOnFunction implements core.FunctionPass.
func (FrameOpts) RunOnFunction(fc *core.FuncCtx, fn *core.BinaryFunction) error {
	// Live-out sets of the function as it came in: deleting a dead
	// spill only shrinks them, so they stay a safe over-approximation.
	var liveOut []isa.RegSet
	for _, b := range fn.Blocks {
		for i := 0; i+2 < len(b.Insts); i++ {
			push := &b.Insts[i]
			call := &b.Insts[i+1]
			pop := &b.Insts[i+2]
			if push.I.Op != isa.PUSH || pop.I.Op != isa.POP {
				continue
			}
			r := push.I.R1
			if r != pop.I.R1 || !r.CallerSaved() || !call.IsCall() {
				continue
			}
			if liveOut == nil {
				liveOut = flagsLiveOut(fn, &fc.Dataflow)
			}
			if liveAfterInst(b, i+2, liveOut[b.Index]).Has(r) {
				// The value is consumed later: the spill is real.
				continue
			}
			// Close the gaps in place: the call moves down one slot and
			// the rest of the block two.
			b.Insts[i] = *call
			b.Insts = append(b.Insts[:i+1], b.Insts[i+3:]...)
			fc.CountStat(core.StatFrameOptsSpills, 1)
		}
	}
	return nil
}

// ShrinkWrapping moves a callee-saved register save out of the prologue
// and into the single cold block that actually uses it (Table 1, pass
// 16), when the profile shows the hot entry path never needs the spill.
//
// Conservative preconditions (full generality needs the frame analysis of
// production BOLT):
//   - standard prologue: push rbp; mov rbp,rsp; push r1..rk, no locals
//     (no `sub rsp, N`), no landing pads in the function;
//   - the candidate is the LAST pushed callee-saved register (so no other
//     spill slot or local offset shifts);
//   - all reads/writes of the register happen in one block containing no
//     calls (so no unwinding can observe the moved save);
//   - that block is cold relative to the entry.
type ShrinkWrapping struct{}

// Name implements core.FunctionPass.
func (ShrinkWrapping) Name() string { return "shrink-wrapping" }

// RunOnFunction implements core.FunctionPass.
func (s ShrinkWrapping) RunOnFunction(fc *core.FuncCtx, fn *core.BinaryFunction) error {
	if fn.HasLSDA || !fn.Sampled || len(fn.Blocks) < 2 {
		return nil
	}
	s.runOne(fc, fn)
	return nil
}

func (s ShrinkWrapping) runOne(fc *core.FuncCtx, fn *core.BinaryFunction) {
	entry := fn.Blocks[0]
	// Match the prologue and find the last saved callee-saved register.
	nPush, last := 0, -1 // callee-saved pushes of the prologue, and the last one's index
	sawFrame := false
	for i := range entry.Insts {
		in := &entry.Insts[i]
		switch {
		case in.I.Op == isa.PUSH && in.I.R1 == isa.RBP && i == 0:
		case in.I.Op == isa.MOVrr && in.I.R1 == isa.RBP && in.I.R2 == isa.RSP:
			sawFrame = true
		case in.I.Op == isa.PUSH && in.I.R1.CalleeSaved() && sawFrame:
			nPush, last = nPush+1, i
		case in.I.Op == isa.SUBri && in.I.R1 == isa.RSP:
			return // locals present: offsets would shift
		}
	}
	if !sawFrame || nPush == 0 {
		return
	}
	reg := entry.Insts[last].I.R1

	// Find the unique block using reg; reject other uses.
	var home *core.BasicBlock
	for _, b := range fn.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if b == entry && in.I.Op == isa.PUSH && in.I.R1 == reg {
				continue
			}
			if in.I.Op == isa.POP && in.I.R1 == reg {
				continue // epilogue restore
			}
			touched := in.I.Uses() | in.I.Defs()
			if in.IsCall() {
				touched = 0 // calls preserve callee-saved registers
			}
			if touched.Has(reg) {
				if home != nil && home != b {
					return
				}
				home = b
			}
			if in.IsCall() && home == b {
				return // no calls in the home block
			}
		}
		if b.IsLP {
			return
		}
	}
	if home == nil || home == entry || home.IsEntry {
		return
	}
	// Calls anywhere in home block?
	for i := range home.Insts {
		if home.Insts[i].IsCall() {
			return
		}
	}
	// Profitability: home must be cold relative to the entry.
	if entry.ExecCount == 0 || home.ExecCount*20 > entry.ExecCount {
		return
	}
	// The CFI surgery below may intern a saved and a restored variant of
	// every state the function has.
	if 3*fn.CFIStates() > core.MaxCFIStates {
		return
	}

	// Compute the old save offset (CFA-relative) for CFI surgery.
	saveOff := int32(-24 - 8*int32(nPush-1))

	// 1. Drop the prologue push.
	entry.Insts = append(entry.Insts[:last:last], entry.Insts[last+1:]...)

	// 2. Drop the matching epilogue pops (block ends in ret: sequence
	// `... pop reg ... pop rbp; ret`).
	for _, b := range fn.Blocks {
		lastInst := b.LastInst()
		if lastInst == nil || !lastInst.I.IsReturn() {
			continue
		}
		for i := len(b.Insts) - 1; i >= 0; i-- {
			if b.Insts[i].I.Op == isa.POP && b.Insts[i].I.R1 == reg {
				b.Insts = append(b.Insts[:i:i], b.Insts[i+1:]...)
				break
			}
		}
	}

	// 3. Wrap the home block with push/pop.
	pushIn := core.Inst{I: isa.NewInst(isa.PUSH)}
	pushIn.I.R1 = reg
	popIn := core.Inst{I: isa.NewInst(isa.POP)}
	popIn.I.R1 = reg

	// 4. CFI: remove reg from every state outside the home block; inside
	// (after the push) it stays saved at the same CFA offset.
	for _, b := range fn.Blocks {
		for i := range b.Insts {
			if b.Insts[i].CFIIdx == 0 {
				continue
			}
			st := *fn.StateAt(b.Insts[i].CFIIdx)
			if b == home {
				st.Save(uint8(reg), saveOff)
			} else {
				st.Restore(uint8(reg))
			}
			b.Insts[i].CFIIdx = fn.InternState(st)
		}
	}

	// Insert the push first / pop last (before a trailing branch).
	pushIn.CFIIdx = home.CFIIn
	if len(home.Insts) > 0 {
		pushIn.CFIIdx = home.Insts[0].CFIIdx
	}
	popIn.CFIIdx = pushIn.CFIIdx
	insertAt := len(home.Insts)
	if lastInst := home.LastInst(); lastInst != nil && (lastInst.I.IsBranch() || lastInst.I.Op == isa.HLT) {
		insertAt--
	}
	newInsts := make([]core.Inst, 0, len(home.Insts)+2)
	newInsts = append(newInsts, pushIn)
	newInsts = append(newInsts, home.Insts[:insertAt]...)
	newInsts = append(newInsts, popIn)
	newInsts = append(newInsts, home.Insts[insertAt:]...)
	home.Insts = newInsts

	fc.CountStat(core.StatShrinkWrapping, 1)
}
