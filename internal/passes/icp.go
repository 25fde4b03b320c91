package passes

import (
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
// histogram) that later barriers may reshape. It is sparse: only the
// functions owning a profiled call-site address are looked at.
type ICP struct{}

// Name implements core.Pass.
func (ICP) Name() string { return "icp" }

// icpThreshold is the minimum share of a site's calls its dominant target
// must take to be promoted. A variable only so TestPrintCFGGolden can
// promote a site whose two targets alternate.
var icpThreshold = 0.51

// icpSite is one promotable indirect call: instruction i of block b.
type icpSite struct {
	b               *core.BasicBlock
	i               int
	hot             *core.BinaryFunction
	hotCount, total uint64
}

// Run implements core.Pass.
func (p ICP) Run(ctx *core.BinaryContext) error {
	if len(ctx.CallTargets) == 0 {
		return nil
	}
	// Marking is order-free; the functions are then visited in address
	// order, as a scan of all of them would.
	owns := make([]bool, len(ctx.Funcs)+1)
	for addr := range ctx.CallTargets {
		if fn := ctx.FuncContaining(addr); fn != nil {
			owns[fn.Ref()] = true
		}
	}
	var sites []icpSite
	for _, fn := range ctx.Funcs {
		if !owns[fn.Ref()] || !fn.Simple || fn.FoldedInto != nil {
			continue
		}
		// Collect sites first: block surgery invalidates iteration.
		sites = sites[:0]
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
				// The dominant target; equal counts go to the lesser name.
				var total, hotCount uint64
				hot, first := "", true
				for n, c := range hist {
					total += c
					if first || c > hotCount || (c == hotCount && n < hot) {
						hot, hotCount, first = n, c, false
					}
				}
				if float64(hotCount) < icpThreshold*float64(total) {
					continue
				}
				target := ctx.ByName[hot]
				if target == nil || target.Addr >= 1<<31 {
					continue // must fit a cmp imm32
				}
				sites = append(sites, icpSite{b: b, i: i, hot: target, hotCount: hotCount, total: total})
			}
		}
		if len(sites) == 0 {
			continue
		}
		// The cmp clobbers FLAGS: liveness, once per function with a site.
		liveOut := flagsLiveOut(fn)
		for s := len(sites) - 1; s >= 0; s-- {
			st := sites[s]
			if liveAfterInst(st.b, st.i, liveOut[st.b.Index])&isa.FlagsBit != 0 {
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
// block's live-out set. It is the general analysis of the dataflow
// framework over all registers — ICP consults FLAGS, frame-opts the
// spilled register — so callers ask for it only once they hold a
// candidate site. Each block's instructions are folded into use/def
// once, and the edges (exception edges included) into index arrays, so
// the fixpoint itself touches no instruction.
func flagsLiveOut(fn *core.BinaryFunction) []isa.RegSet {
	n, edges := len(fn.Blocks), 0
	for _, b := range fn.Blocks {
		edges += len(b.Succs) + len(b.LPs)
	}
	sets := make([]isa.RegSet, 2*n)
	use, def := sets[:n], sets[n:]
	slab := make([]int32, n+1+edges)
	succOff, succ := slab[:n+1], slab[n+1:n+1]
	for i, b := range fn.Blocks {
		var u, d isa.RegSet
		for k := range b.Insts {
			u |= b.Insts[k].I.Uses() &^ d
			d |= b.Insts[k].I.Defs()
		}
		use[i], def[i] = u, d
		for _, e := range b.Succs {
			succ = append(succ, int32(e.To.Index))
		}
		for _, lp := range b.LPs {
			succ = append(succ, int32(lp.Index))
		}
		succOff[i+1] = int32(len(succ))
	}
	g := dataflow.NewGraph(succOff, succ)
	_, liveOut := dataflow.Liveness(&g, use, def)
	return liveOut
}

// liveAfterInst returns the registers live immediately after instruction
// i of block b, whose live-out set is liveOut.
func liveAfterInst(b *core.BasicBlock, i int, liveOut isa.RegSet) isa.RegSet {
	live := liveOut
	for k := len(b.Insts) - 1; k > i; k-- {
		live = b.Insts[k].I.Uses() | (live &^ b.Insts[k].I.Defs())
	}
	return live
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
