package passes

import (
	"gobolt/internal/core"
	"gobolt/internal/hfsort"
	"gobolt/internal/isa"
	"gobolt/internal/layout"
)

// ReorderBBs is the layout workhorse (Table 1, pass 9): it reorders each
// profiled function's blocks so the hottest successor falls through, and
// with -split-functions marks its rarely run blocks for the cold fragment.
type ReorderBBs struct{}

// Name implements core.FunctionPass.
func (ReorderBBs) Name() string { return "reorder-bbs" }

// RunOnFunction implements core.FunctionPass.
func (ReorderBBs) RunOnFunction(fc *core.FuncCtx, fn *core.BinaryFunction) error {
	if !fn.Sampled || len(fn.Blocks) <= 2 {
		return nil
	}
	if algo := fc.Opts.ReorderBlocks; algo != layout.AlgoNone && algo != "" {
		reorderOne(fc, fn, algo)
		fc.CountStat(core.StatReorderBBsFuncs, 1)
	}
	if fc.Opts.SplitFunctions {
		markCold(fc, fn)
	}
	return nil
}

// reorderOne partitions hot/cold and lays out the hot subgraph. It
// works in the worker's buffers and rewrites fn.Blocks in place.
func reorderOne(fc *core.FuncCtx, fn *core.BinaryFunction, algo layout.Algorithm) {
	// pos maps BasicBlock.Index to one plus the block's node in the
	// layout graph, 0 for a cold block. The entry is node 0 whatever its
	// count, and the only block the loader marks IsEntry.
	n := len(fn.Blocks)
	pos := fc.Ints(n)
	nHot := 1
	pos[0] = 1
	for _, b := range fn.Blocks[1:] {
		if b.ExecCount > 0 {
			nHot++
			pos[b.Index] = int32(nHot)
		}
	}
	// old holds the hot blocks in node order, then the cold ones in
	// input order, while fn.Blocks is rewritten.
	old := fc.Blocks(n)
	hot, cold := 0, nHot
	nEdges := 0
	for i, b := range fn.Blocks {
		if pos[i] != 0 {
			old[hot] = b
			hot++
			nEdges += len(b.Succs)
		} else {
			old[cold] = b
			cold++
		}
	}

	g := fc.Layout.Graph(nHot, nEdges)
	for i, b := range old[:nHot] {
		g.Weight[i] = b.ExecCount
		size := 0
		for k := range b.Insts {
			size += int(b.Insts[k].I.Size)
			if b.Insts[k].I.Size == 0 {
				size += isa.InstLen(&b.Insts[k].I, true)
			}
		}
		g.Size[i] = size
		for _, e := range b.Succs {
			if j := pos[e.To.Index]; j != 0 && e.Count > 0 {
				g.Edges = append(g.Edges, layout.Edge{From: i, To: int(j) - 1, Weight: e.Count})
			}
		}
	}
	for i, o := range fc.Layout.Reorder(g, algo) {
		fn.Blocks[i] = old[o]
	}
	copy(fn.Blocks[nHot:], old[nHot:])
	for i, b := range fn.Blocks {
		b.Index = i
	}
}

// markCold moves to the cold fragment every non-entry block, landing
// pads included, whose count is at most 1/64 of the function's hottest
// block (the paper's -split-functions=3 -split-all-cold -split-eh).
func markCold(fc *core.FuncCtx, fn *core.BinaryFunction) {
	var maxCount uint64
	for _, b := range fn.Blocks {
		if b.ExecCount > maxCount {
			maxCount = b.ExecCount
		}
	}
	threshold := maxCount / 64
	anyCold := false
	for _, b := range fn.Blocks {
		if b.IsEntry || b.ExecCount > threshold {
			continue
		}
		b.IsCold = true
		anyCold = true
		fc.CountStat(core.StatSplitColdBlocks, 1)
	}
	if anyCold {
		fn.IsSplit = true
		fc.CountStat(core.StatSplitFunctions, 1)
	}
}

// ReorderFunctions applies HFSort to the dynamic call graph (Table 1,
// pass 13; §5.3). With LBR profiles the graph comes from branch records
// into function entries; without LBR it is approximated from the counts of
// blocks containing direct calls — indirect calls are invisible, exactly
// the limitation the paper describes.
type ReorderFunctions struct{}

// Name implements core.Pass.
func (ReorderFunctions) Name() string { return "reorder-functions" }

// Run implements core.Pass.
func (ReorderFunctions) Run(ctx *core.BinaryContext) error {
	algo := ctx.Opts.ReorderFunctions
	if algo == hfsort.AlgoNone || algo == "" {
		return nil
	}
	// The functions with weight are the graph's nodes, in address order.
	var g hfsort.Graph
	var refs []core.FuncRef               // graph node -> function
	node := make([]int, len(ctx.Funcs)+1) // FuncRef -> one plus its graph node
	calls := ctx.CallEdges                // empty without LBR
	for _, fn := range ctx.Funcs {
		weight := fn.ExecCount
		if !ctx.ProfileLBR && fn.Simple {
			// Non-LBR approximation: every direct call in a block ran as
			// often as the block did. The node weight is the time spent in
			// the function — block count × instructions, what the samples
			// measured before they were normalised — because hfsort's
			// density is time per byte.
			total := uint64(0)
			for _, b := range fn.Blocks {
				total += b.ExecCount * uint64(len(b.Insts))
				if b.ExecCount == 0 {
					continue
				}
				for i := range b.Insts {
					if in := &b.Insts[i]; in.I.Op == isa.CALL {
						if callee := ctx.TargetSym(fn, in); callee != core.NoFunc {
							calls = append(calls, core.CallEdge{Caller: fn.Ref(), Callee: callee, Count: b.ExecCount})
						}
					}
				}
			}
			if total > 0 {
				weight = total
			}
		}
		if weight > 0 {
			refs = append(refs, fn.Ref())
			node[fn.Ref()] = len(refs)
			g.Weight = append(g.Weight, weight)
			g.Size = append(g.Size, fn.Size)
			g.Names = append(g.Names, fn.Name)
		}
	}
	g.N = len(refs)
	// A caller without weight is numbered after the nodes, for its name.
	for _, e := range calls {
		from, to := node[e.Caller]-1, node[e.Callee]-1
		if to < 0 || to >= g.N {
			continue
		}
		if from < 0 {
			g.Names = append(g.Names, ctx.Func(e.Caller).Name)
			from, node[e.Caller] = len(g.Names)-1, len(g.Names)
		}
		g.Edges = append(g.Edges, hfsort.Edge{From: from, To: to, Weight: e.Count})
	}
	order := hfsort.Order(&g, algo)
	ctx.FuncOrder = make([]core.FuncRef, len(order))
	for k, n := range order {
		ctx.FuncOrder[k] = refs[n]
	}
	ctx.CountStat(core.StatReorderFunctions, int64(len(ctx.FuncOrder)))
	return nil
}
