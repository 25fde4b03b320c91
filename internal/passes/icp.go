package passes

import (
	"sort"

	"gobolt/internal/core"
	"gobolt/internal/dataflow"
	"gobolt/internal/isa"
)

// ICP promotes hot indirect calls to guarded direct calls (Table 1,
// pass 3): when the profile shows one callee dominating an indirect call
// site, the call is rewritten to
//
//	cmp  $hot_target, %reg
//	jne  Lind
//	call hot_target     ; direct: better BTB behavior, inlinable later
//	jmp  Lcont
//	Lind: call *%reg
//	Lcont: ...
//
// The transformation verifies with liveness analysis that FLAGS are dead
// at the site (the cmp clobbers them).
//
// ICP is a whole-binary pass (a sequential barrier under the
// PassManager): the CFG surgery is per-function, but promotion decisions
// read cross-function state (target addresses, the global call-target
// histogram) that later barriers may reshape.
type ICP struct{}

// Name implements core.Pass.
func (ICP) Name() string { return "icp" }

// Run implements core.Pass.
func (p ICP) Run(ctx *core.BinaryContext) error {
	threshold := ctx.Opts.ICPThreshold
	if threshold == 0 {
		threshold = 0.51
	}
	for _, fn := range ctx.SimpleFuncs() {
		// Collect sites first: block surgery invalidates iteration.
		type site struct {
			b               *core.BasicBlock
			i               int
			hot             *core.BinaryFunction
			hotCount, total uint64
		}
		var sites []site
		for _, b := range fn.Blocks {
			for i := range b.Insts {
				in := &b.Insts[i]
				if in.I.Op != isa.CALLr {
					continue
				}
				hist := ctx.CallTargets[in.Addr]
				if len(hist) == 0 {
					continue
				}
				var total uint64
				names := make([]string, 0, len(hist))
				for n, c := range hist {
					total += c
					names = append(names, n)
				}
				sort.Slice(names, func(x, y int) bool {
					if hist[names[x]] != hist[names[y]] {
						return hist[names[x]] > hist[names[y]]
					}
					return names[x] < names[y]
				})
				hot := names[0]
				if float64(hist[hot]) < threshold*float64(total) {
					continue
				}
				target := ctx.ByName[hot]
				if target == nil || target.Addr >= 1<<31 {
					continue // must fit a cmp imm32
				}
				sites = append(sites, site{b: b, i: i, hot: target, hotCount: hist[hot], total: total})
			}
		}
		// FLAGS liveness: compute per-block live-out once per function.
		if len(sites) == 0 {
			continue
		}
		liveOut := flagsLiveOut(fn)
		for s := len(sites) - 1; s >= 0; s-- {
			st := sites[s]
			if flagsLiveAfterInst(fn, st.b, st.i, liveOut) {
				ctx.CountStat(core.StatICPFlagsBlocked, 1)
				continue
			}
			promote(fn, st.b, st.i, st.hot, st.hotCount, st.total)
			ctx.CountStat(core.StatICPPromoted, 1)
		}
		for i, b := range fn.Blocks {
			b.Index = i
		}
	}
	return nil
}

// flagsLiveOut runs register liveness over the function and returns each
// block's live-out set (only FLAGS is consulted, but the analysis is the
// general one from the dataflow framework).
func flagsLiveOut(fn *core.BinaryFunction) []isa.RegSet {
	n := len(fn.Blocks)
	// The framework consumes each succs(i) result before the next call,
	// so one reusable buffer serves the whole fixpoint (this closure is
	// called O(blocks × iterations) times — a fresh slice per call
	// dominated the pass's allocations).
	var succBuf []int
	succs := func(i int) []int {
		out := succBuf[:0]
		for _, e := range fn.Blocks[i].Succs {
			out = append(out, e.To.Index)
		}
		for _, lp := range fn.Blocks[i].LPs {
			out = append(out, lp.Index)
		}
		succBuf = out
		return out
	}
	use := func(i int) isa.RegSet {
		b := fn.Blocks[i]
		var u, d isa.RegSet
		for k := range b.Insts {
			u |= b.Insts[k].I.Uses() &^ d
			d |= b.Insts[k].I.Defs()
		}
		return u
	}
	def := func(i int) isa.RegSet {
		b := fn.Blocks[i]
		var d isa.RegSet
		for k := range b.Insts {
			d |= b.Insts[k].I.Defs()
		}
		return d
	}
	_, liveOut := dataflow.Liveness(n, succs, use, def)
	return liveOut
}

// flagsLiveAfterInst reports whether FLAGS is live immediately after
// instruction i of block b.
func flagsLiveAfterInst(fn *core.BinaryFunction, b *core.BasicBlock, i int, liveOut []isa.RegSet) bool {
	uses := make([]isa.RegSet, len(b.Insts))
	defs := make([]isa.RegSet, len(b.Insts))
	for k := range b.Insts {
		uses[k] = b.Insts[k].I.Uses()
		defs[k] = b.Insts[k].I.Defs()
	}
	liveAfter := dataflow.LiveAtEachInst(uses, defs, liveOut[b.Index])
	return liveAfter[i]&isa.FlagsBit != 0
}

// promote performs the CFG surgery for one call site.
func promote(fn *core.BinaryFunction, b *core.BasicBlock, i int, hot *core.BinaryFunction, hotCount, total uint64) {
	call := &b.Insts[i] // valid until b.Insts is rebuilt at the end
	reg := call.I.R1

	newBlock := func(label string) *core.BasicBlock {
		nb := &core.BasicBlock{
			Index: len(fn.Blocks),
			Label: label,
			CFIIn: call.CFIIdx,
		}
		fn.Blocks = append(fn.Blocks, nb)
		return nb
	}
	direct := newBlock(b.Label + ".icp_d")
	indirect := newBlock(b.Label + ".icp_i")
	cont := newBlock(b.Label + ".icp_c")

	// The continuation takes the rest of the block and the indirect
	// fallback the original call, both where they already are: b moves to
	// a fresh array below, so the old one is theirs alone.
	cont.Insts = b.Insts[i+1:]
	cont.Succs = b.Succs
	cont.LPs = b.LPs
	for _, e := range cont.Succs {
		replacePred(e.To, b, cont)
	}
	cont.ExecCount = b.ExecCount

	// Direct path: the call's annotations on a direct call to the hot
	// target.
	direct.Insts = []core.Inst{*call}
	dc := &direct.Insts[0]
	dc.I = isa.NewInst(isa.CALL)
	dc.Addr = 0
	dc.TargetSym = hot.Ref()
	direct.Succs = []core.Edge{{To: cont, Count: hotCount}}
	direct.ExecCount = hotCount
	cont.Preds = append(cont.Preds, direct)

	// Indirect fallback keeps the original call.
	call.Addr = 0
	indirect.Insts = b.Insts[i : i+1 : i+1]
	indirect.Succs = []core.Edge{{To: cont, Count: total - hotCount}}
	indirect.ExecCount = total - hotCount
	cont.Preds = append(cont.Preds, indirect)

	// Landing pads propagate to both call copies.
	if lp, _ := fn.LandingPad(call); lp != nil {
		direct.LPs = []*core.BasicBlock{lp}
		indirect.LPs = []*core.BasicBlock{lp}
	}

	// The original block now compares and branches.
	cmp := core.Inst{CFIIdx: call.CFIIdx, Src: call.Src}
	cmp.I = isa.NewInst(isa.CMPri)
	cmp.I.R1 = reg
	cmp.I.Imm = 1 << 30 // placeholder; patched via ImmSym at emission
	cmp.ImmSym = hot.Ref()
	jcc := core.Inst{CFIIdx: call.CFIIdx}
	jcc.I = isa.NewInst(isa.JCC)
	jcc.I.Cc = isa.CondE
	b.Insts = append(b.Insts[:i:i], cmp, jcc)
	b.Succs = []core.Edge{{To: direct, Count: hotCount}, {To: indirect, Count: total - hotCount}}
	b.LPs = nil
	direct.Preds = []*core.BasicBlock{b}
	indirect.Preds = []*core.BasicBlock{b}
}

func replacePred(b *core.BasicBlock, old, nw *core.BasicBlock) {
	for i, p := range b.Preds {
		if p == old {
			b.Preds[i] = nw
		}
	}
}
