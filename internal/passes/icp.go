package passes

import (
	"slices"
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
// histogram) that later barriers may reshape. It is sparse: only the
// functions owning a profiled call-site address are looked at.
type ICP struct{}

// Name implements core.Pass.
func (ICP) Name() string { return "icp" }

// icpThreshold is the minimum share of a site's calls its dominant target
// must take to be promoted. A variable only so TestPrintCFGGolden can
// promote a site whose two targets alternate.
var icpThreshold = 0.51

// icpSite is one promotable indirect call: the call at address site,
// instruction i of block b, and its dominant callee.
type icpSite struct {
	site            uint64
	b               *core.BasicBlock
	i               int
	hot             *core.BinaryFunction
	hotCount, total uint64
}

// hotSites walks the call-target histogram, sorted by site, and returns
// the sites whose dominant callee takes at least icpThreshold of the calls
// and fits a cmp imm32, in site order. Equal counts go to the lesser name.
func hotSites(ctx *core.BinaryContext) []icpSite {
	var out []icpSite
	ts := ctx.CallTargets
	for i := 0; i < len(ts); {
		st := icpSite{site: ts[i].Site}
		for ; i < len(ts) && ts[i].Site == st.site; i++ {
			fn, c := ctx.Func(ts[i].Callee), ts[i].Count
			st.total += c
			if st.hot == nil || c > st.hotCount || (c == st.hotCount && fn.Name < st.hot.Name) {
				st.hot, st.hotCount = fn, c
			}
		}
		if float64(st.hotCount) >= icpThreshold*float64(st.total) && st.hot.Addr < 1<<31 {
			out = append(out, st)
		}
	}
	return out
}

// Run implements core.Pass.
func (p ICP) Run(ctx *core.BinaryContext) error {
	hot := hotSites(ctx)
	// at is the index of the first site at or after addr.
	at := func(addr uint64) int {
		return sort.Search(len(hot), func(k int) bool { return hot[k].site >= addr })
	}
	var sites []icpSite
	var live dataflow.Scratch
	for _, fn := range ctx.Funcs {
		k := at(fn.Addr)
		if k == len(hot) || hot[k].site >= fn.Addr+fn.Size || !fn.Simple || fn.FoldedInto != nil {
			continue // no site in fn, or fn stays as it is
		}
		// Collect sites first: block surgery invalidates iteration.
		sites = sites[:0]
		for _, b := range fn.Blocks {
			for i := range b.Insts {
				in := &b.Insts[i]
				if in.I.Op != isa.CALLr {
					continue
				}
				addr := fn.InstAddr(in)
				if k := at(addr); k < len(hot) && hot[k].site == addr {
					st := hot[k]
					st.b, st.i = b, i
					sites = append(sites, st)
				}
			}
		}
		if len(sites) == 0 {
			continue
		}
		// The cmp clobbers FLAGS: liveness, once per function with a site.
		liveOut := flagsLiveOut(fn, &live)
		fn.Blocks = slices.Grow(fn.Blocks, 3*len(sites))
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

// flagsLiveOut runs register liveness over the function in s and returns
// each block's live-out set, which is s's until its next use. It is the
// general analysis of the dataflow framework over all registers — ICP
// consults FLAGS, frame-opts the spilled register — so callers ask for
// it only once they hold a candidate site. Each block's instructions are
// folded into use/def once, and the edges into index arrays, so the
// fixpoint itself touches no instruction. A call with a landing pad adds
// an exception edge from its block; a function without landing pads
// has none to look for.
func flagsLiveOut(fn *core.BinaryFunction, s *dataflow.Scratch) []isa.RegSet {
	lps := fn.HasLandingPads()
	edges := 0
	for _, b := range fn.Blocks {
		edges += len(b.Succs)
		for k := 0; lps && k < len(b.Insts); k++ {
			if b.Insts[k].LP() != 0 {
				edges++
			}
		}
	}
	use, def, succOff, succ := s.Problem(len(fn.Blocks), edges)
	for i, b := range fn.Blocks {
		var u, d isa.RegSet
		for k := range b.Insts {
			in := &b.Insts[k]
			u |= in.I.Uses() &^ d
			d |= in.I.Defs()
		}
		use[i], def[i] = u, d
		for _, e := range b.Succs {
			succ = append(succ, int32(e.To.Index))
		}
		for k := 0; lps && k < len(b.Insts); k++ {
			if lp, _ := fn.LandingPad(&b.Insts[k]); lp != nil {
				succ = append(succ, int32(lp.Index))
			}
		}
		succOff[i+1] = int32(len(succ))
	}
	g := s.NewGraph(succOff, succ)
	_, liveOut := s.Liveness(&g, use, def)
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

// promote performs the CFG surgery for one call site in two
// allocations: the three new blocks with their edges, and the rebuilt
// block's instructions with the direct call. Each new block is named by
// b's ID and its kind. Run grows fn.Blocks once per function, so
// appending the new blocks allocates nothing.
func promote(fn *core.BinaryFunction, b *core.BasicBlock, i int, hot *core.BinaryFunction, hotCount, total uint64) {
	call := &b.Insts[i] // valid until b.Insts is rebuilt at the end
	reg := call.I.R1

	site := new(struct {
		blocks [3]core.BasicBlock // direct, indirect, cont
		edges  [4]core.Edge       // b's two, then direct's and indirect's
	})
	for k, kind := range [...]core.BlockID{core.ICPDirect, core.ICPIndirect, core.ICPCont} {
		nb := &site.blocks[k]
		nb.Index, nb.ID, nb.CFIIn = len(fn.Blocks), b.ID|kind, call.CFIIdx
		fn.Blocks = append(fn.Blocks, nb)
	}
	direct, indirect, cont := &site.blocks[0], &site.blocks[1], &site.blocks[2]
	e := site.edges[:]
	insts := make([]core.Inst, i+3)

	// The continuation takes the rest of the block and the indirect
	// fallback the original call, both where they already are: b moves to
	// a fresh array below, so the old one is theirs alone.
	cont.Insts = b.Insts[i+1:]
	cont.Succs = b.Succs
	cont.ExecCount = b.ExecCount

	// Direct path: the call's annotations, its landing pad among them, on
	// a direct call to the hot target. It keeps the indirect call's Size,
	// which block layout reads as its length.
	insts[i+2] = *call
	dc := &insts[i+2]
	dc.I = isa.NewInst(isa.CALL)
	dc.I.SetTargetAddr(hot.Addr)
	dc.I.Size = call.I.Size
	dc.MarkCopied()
	direct.Insts = insts[i+2 : i+3 : i+3]
	e[2] = core.Edge{To: cont, Count: hotCount}
	direct.Succs = e[2:3:3]
	direct.ExecCount = hotCount

	// Indirect fallback keeps the original call.
	call.MarkCopied()
	indirect.Insts = b.Insts[i : i+1 : i+1]
	e[3] = core.Edge{To: cont, Count: total - hotCount}
	indirect.Succs = e[3:4:4]
	indirect.ExecCount = total - hotCount

	// The original block now compares and branches.
	copy(insts, b.Insts[:i])
	cmp := &insts[i]
	cmp.Off, cmp.CFIIdx = call.Off, call.CFIIdx
	cmp.I = isa.NewInst(isa.CMPri)
	cmp.I.R1 = reg
	cmp.SetImmFunc(hot)
	jcc := &insts[i+1]
	jcc.CFIIdx = call.CFIIdx
	jcc.I = isa.NewInst(isa.JCC)
	jcc.I.Cc = isa.CondE
	b.Insts = insts[: i+2 : i+2]
	e[0] = core.Edge{To: direct, Count: hotCount}
	e[1] = core.Edge{To: indirect, Count: total - hotCount}
	b.Succs = e[0:2:2]
}
