package core

import (
	"slices"

	"gobolt/internal/flow"
)

// flowWorker is one profile:infer worker's inference state: the solver
// and the problem slabs it is handed, all reused from function to
// function, so the stage allocates while a worker's largest CFG so far
// is still growing them and not per function.
type flowWorker struct {
	solver flow.Solver
	nodes  []flow.Node
	succs  []flow.Succ
}

// normalizeSamples turns fn's per-block PC-sample counts, which measure
// time spent in a block (executions × instructions ÷ period), into
// execution-count weights. Everything downstream of the profile stage —
// the flow equations, fn.ExecCount, the split threshold, call-edge
// weights — reads block counts as executions.
func normalizeSamples(fn *BinaryFunction) {
	for _, b := range fn.Blocks {
		b.ExecCount = flow.SampleWeight(b.ExecCount, len(b.Insts))
	}
}

// problem converts fn's CFG and current counts into the minimum-cost-flow
// inference problem, cut from w's slabs. withEdges seeds the measured
// edge counts as baselines (the LBR/stale consistency-repair case);
// without it the block counts are normalized PC samples, each block
// carries its size so the solver can weigh its zeros, and the edges are
// reconstructed from scratch. Edge costs encode the static layout
// (§5.2): fall-through cheapest, taken forward next, backward dearest.
func (w *flowWorker) problem(fn *BinaryFunction, withEdges bool) []flow.Node {
	nEdges := 0
	for _, b := range fn.Blocks {
		nEdges += len(b.Succs)
	}
	w.nodes = slices.Grow(w.nodes[:0], len(fn.Blocks))
	w.succs = slices.Grow(w.succs[:0], nEdges)
	nodes, succs := w.nodes[:len(fn.Blocks)], w.succs
	for i, b := range fn.Blocks {
		nd := flow.Node{Weight: b.ExecCount, IsEntry: b.IsEntry || i == 0}
		if !withEdges {
			nd.Size = len(b.Insts)
		}
		cond := isCondTerm(b)
		lo := len(succs)
		for k := range b.Succs {
			j := b.Succs[k].To.Index
			cost := int64(flow.CostTaken)
			switch {
			case j <= i:
				cost = flow.CostBackward
			case j == i+1 && ((cond && k == 1) || len(b.Succs) == 1):
				cost = flow.CostFallThrough
			}
			sc := flow.Succ{To: j, Cost: cost}
			if withEdges {
				sc.Weight = b.Succs[k].Count
			}
			succs = append(succs, sc)
		}
		nd.Succs = succs[lo:len(succs):len(succs)]
		nodes[i] = nd
	}
	return nodes
}

// infer runs minimum-cost-flow inference over fn and writes the
// conserving counts from the solver's slabs straight onto the CFG. It
// mutates only fn (blocks and edges) and w, so it is safe as a parallel
// per-function stage with one flowWorker per worker; Mispreds are
// preserved — only Counts are rebalanced.
func (w *flowWorker) infer(fn *BinaryFunction, withEdges bool) {
	res := w.solver.Infer(w.problem(fn, withEdges))
	for i, b := range fn.Blocks {
		b.ExecCount = res.NodeCounts[i]
		for k := range b.Succs {
			b.Succs[k].Count = res.EdgeCounts[i][k]
		}
	}
}
