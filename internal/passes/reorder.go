package passes

import (
	"gobolt/internal/core"
	"gobolt/internal/hfsort"
	"gobolt/internal/isa"
	"gobolt/internal/layout"
	"gobolt/internal/profile"
)

// ReorderBBs is the layout workhorse (Table 1, pass 9): it reorders each
// profiled function's blocks so the hottest successor falls through, and
// marks never-executed blocks for the cold fragment (function splitting,
// -split-functions / -split-all-cold / -split-eh).
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
	if fc.Opts.SplitFunctions > 0 {
		markCold(fc, fn)
	}
	return nil
}

// reorderOne partitions hot/cold and lays out the hot subgraph.
func reorderOne(fc *core.FuncCtx, fn *core.BinaryFunction, algo layout.Algorithm) {
	// pos maps BasicBlock.Index to one plus the block's node in the
	// layout graph, 0 for a cold block. The entry is node 0 whatever its
	// count, and the only block the loader marks IsEntry.
	pos := fc.Ints(len(fn.Blocks))
	nHot := 1
	pos[0] = 1
	for _, b := range fn.Blocks[1:] {
		if b.ExecCount > 0 {
			nHot++
			pos[b.Index] = int32(nHot)
		}
	}
	hot := make([]*core.BasicBlock, 0, nHot)
	newBlocks := make([]*core.BasicBlock, nHot, len(fn.Blocks))
	nEdges := 0
	for i, b := range fn.Blocks {
		if pos[i] != 0 {
			hot = append(hot, b)
			nEdges += len(b.Succs)
		} else {
			newBlocks = append(newBlocks, b)
		}
	}

	g := &layout.Graph{
		N:      nHot,
		Weight: make([]uint64, nHot),
		Size:   make([]int, nHot),
		Edges:  make([]layout.Edge, 0, nEdges),
	}
	for i, b := range hot {
		g.Weight[i] = b.ExecCount
		size := 0
		for k := range b.Insts {
			size += int(b.Insts[k].Size)
			if b.Insts[k].Size == 0 {
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
	for i, o := range layout.Reorder(g, algo) {
		newBlocks[i] = hot[o]
	}
	fn.Blocks = newBlocks
	for i, b := range fn.Blocks {
		b.Index = i
	}
}

// markCold assigns cold blocks to the cold fragment. -split-functions
// levels: 1 splits only never-executed blocks; >=2 also splits blocks
// whose count is negligible next to the function's hottest block
// (level 3, the paper's setting, uses a 1/64 threshold).
func markCold(fc *core.FuncCtx, fn *core.BinaryFunction) {
	var maxCount uint64
	for _, b := range fn.Blocks {
		if b.ExecCount > maxCount {
			maxCount = b.ExecCount
		}
	}
	threshold := uint64(0)
	if fc.Opts.SplitFunctions >= 2 {
		threshold = maxCount / 64
	}
	anyCold := false
	for _, b := range fn.Blocks {
		if b.IsEntry || b.ExecCount > threshold {
			continue
		}
		if !fc.Opts.SplitAllCold && !b.IsLP {
			continue
		}
		if b.IsLP && !fc.Opts.SplitEH {
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
	g := &profile.CallGraph{Nodes: map[string]uint64{}, Edges: map[[2]string]uint64{}}
	sizes := map[string]uint64{}
	for _, fn := range ctx.Funcs {
		sizes[fn.Name] = fn.Size
		if fn.ExecCount > 0 {
			g.Nodes[fn.Name] = fn.ExecCount
		}
	}
	if ctx.ProfileLBR {
		for e, w := range ctx.CallEdges {
			g.Edges[e] += w
		}
	} else {
		// Non-LBR approximation: every direct call in a block ran as often
		// as the block did. The node weight is the time spent in the
		// function — block count × instructions, what the samples measured
		// before they were normalised — because hfsort's density is time
		// per byte.
		for _, fn := range ctx.Funcs {
			if !fn.Simple {
				continue
			}
			total := uint64(0)
			for _, b := range fn.Blocks {
				total += b.ExecCount * uint64(len(b.Insts))
				if b.ExecCount == 0 {
					continue
				}
				for i := range b.Insts {
					in := &b.Insts[i]
					if in.I.Op == isa.CALL && in.TargetSym != core.NoFunc {
						g.Edges[[2]string{fn.Name, ctx.Func(in.TargetSym).Name}] += b.ExecCount
					}
				}
			}
			if total > 0 {
				g.Nodes[fn.Name] = total
			}
		}
	}
	ctx.FuncOrder = hfsort.Order(g, sizes, algo)
	ctx.CountStat(core.StatReorderFunctions, int64(len(ctx.FuncOrder)))
	return nil
}
