// Package dataflow provides the worklist solver behind gobolt's analyses
// (paper §4: "BOLT is also equipped with a dataflow-analysis framework").
// The frame-opts and icp passes use register liveness; the solver is
// generic over block graphs described by dense index arrays.
package dataflow

import "gobolt/internal/isa"

// Graph is a block graph in compressed-sparse-row form: the successors
// of block i are Succ[SuccOff[i]:SuccOff[i+1]] (exception edges
// included), and likewise its predecessors. Every index is in [0, n),
// where n = len(SuccOff)-1 = len(PredOff)-1; duplicates are harmless.
type Graph struct {
	SuccOff, Succ []int32
	PredOff, Pred []int32
}

// NewGraph completes a successor table with its transpose.
func NewGraph(succOff, succ []int32) Graph {
	n := len(succOff) - 1
	slab := make([]int32, n+1+len(succ))
	predOff, pred := slab[:n+1], slab[n+1:]
	for _, s := range succ {
		predOff[s+1]++
	}
	for i := 0; i < n; i++ {
		predOff[i+1] += predOff[i]
	}
	// Filling advances predOff[s] from the start of s's run to its end,
	// which is the start of the next: shift back afterwards.
	for b := 0; b < n; b++ {
		for _, s := range succ[succOff[b]:succOff[b+1]] {
			pred[predOff[s]] = int32(b)
			predOff[s]++
		}
	}
	copy(predOff[1:], predOff[:n])
	predOff[0] = 0
	return Graph{SuccOff: succOff, Succ: succ, PredOff: predOff, Pred: pred}
}

// Liveness computes per-block live-in/live-out register sets with a
// backward worklist iteration: use[i] is what block i reads before any
// write, def[i] what it writes. The result is the least fixpoint, so it
// does not depend on the visiting order.
func Liveness(g *Graph, use, def []isa.RegSet) (liveIn, liveOut []isa.RegSet) {
	n := len(use)
	sets := make([]isa.RegSet, 2*n)
	liveIn, liveOut = sets[:n:n], sets[n:]
	inWork := make([]bool, n)
	work := make([]int32, n)
	// Popped from the end, so the last block is visited first: layout
	// order approximates a topological one and liveness flows backward.
	for i := range work {
		work[i] = int32(i)
		inWork[i] = true
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[b] = false
		var out isa.RegSet
		for _, s := range g.Succ[g.SuccOff[b]:g.SuccOff[b+1]] {
			out |= liveIn[s]
		}
		in := use[b] | (out &^ def[b])
		if out == liveOut[b] && in == liveIn[b] {
			continue
		}
		liveOut[b] = out
		liveIn[b] = in
		for _, p := range g.Pred[g.PredOff[b]:g.PredOff[b+1]] {
			if !inWork[p] {
				inWork[p] = true
				work = append(work, p) // within cap: a block is queued at most once at a time
			}
		}
	}
	return liveIn, liveOut
}
