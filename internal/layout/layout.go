// Package layout implements basic-block ordering algorithms for the
// reorder-bbs pass (Table 1, pass 9): Pettis–Hansen bottom-up chaining
// and the "cache+" algorithm (an ext-TSP-style chain merger that scores
// fall-through and short-jump proximity), plus trivial baselines for
// ablation benchmarks.
package layout

import (
	"cmp"
	"fmt"
	"slices"
)

// Algorithm selects a block-ordering strategy.
type Algorithm string

// Algorithms (flag values mirror the paper's -reorder-blocks options).
const (
	AlgoNone    Algorithm = "none"
	AlgoReverse Algorithm = "reverse"
	AlgoPH      Algorithm = "ph"     // Pettis-Hansen chains
	AlgoCache   Algorithm = "cache+" // ext-TSP-style
)

// ParseAlgorithm converts a -reorder-blocks flag value.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch a := Algorithm(s); a {
	case AlgoNone, AlgoReverse, AlgoPH, AlgoCache:
		return a, nil
	}
	return "", fmt.Errorf("invalid block layout %q (want none, reverse, ph, or cache+)", s)
}

// Edge is a weighted CFG edge between block indices.
type Edge struct {
	From, To int
	Weight   uint64
}

// Graph is the layout problem: block 0 is the entry and must stay first.
type Graph struct {
	N      int
	Weight []uint64 // per-block execution counts
	Size   []int    // per-block byte sizes
	Edges  []Edge
}

// Reorder returns a permutation of 0..N-1 with 0 first.
func Reorder(g *Graph, algo Algorithm) []int {
	switch algo {
	case AlgoReverse:
		out := make([]int, 0, g.N)
		out = append(out, 0)
		for i := g.N - 1; i >= 1; i-- {
			out = append(out, i)
		}
		return out
	case AlgoPH:
		return chainLayout(g, false)
	case AlgoCache:
		return chainLayout(g, true)
	default:
		out := make([]int, g.N)
		for i := range out {
			out[i] = i
		}
		return out
	}
}

// node is one block's share of the chain slab. A chain is a list of
// blocks linked through next and is named by its head block, which a
// merge never changes; chain is maintained for every block, the other
// fields for chain heads only, except end.
type node struct {
	next   int32  // following block in the chain, -1 at the tail
	chain  int32  // head block of the chain holding this block
	tail   int32  // head only: last block of the chain
	size   int32  // head only: bytes in the chain
	end    int32  // bytes from the chain's start to this block's end
	listed bool   // head only: already in the final chain order
	weight uint64 // head only: execution count of the chain's blocks
}

// chainLayout builds chains by merging along heavy edges. In PH mode,
// merges happen in strict edge-weight order when endpoints match. In
// cache+ (ext-TSP-like) mode, merges are chosen by a proximity score that
// also rewards short forward jumps, iterating until no positive gain.
func chainLayout(g *Graph, extTSP bool) []int {
	nodes := make([]node, g.N)
	for i := range nodes {
		nd := node{next: -1, chain: int32(i), tail: int32(i)}
		if i < len(g.Size) {
			nd.size = int32(g.Size[i])
			nd.end = nd.size
		}
		if i < len(g.Weight) {
			nd.weight = g.Weight[i]
		}
		nodes[i] = nd
	}
	// merge appends chain b to chain a.
	merge := func(a, b int32) {
		ca, cb := &nodes[a], &nodes[b]
		for blk := b; blk >= 0; blk = nodes[blk].next {
			nodes[blk].chain = a
			nodes[blk].end += ca.size
		}
		nodes[ca.tail].next = b
		ca.tail = cb.tail
		ca.size += cb.size
		ca.weight += cb.weight
	}

	// Zero-weight and self edges never merge anything.
	edges := make([]Edge, 0, len(g.Edges))
	for _, e := range g.Edges {
		if e.Weight != 0 && e.From != e.To {
			edges = append(edges, e)
		}
	}
	slices.SortStableFunc(edges, func(x, y Edge) int { return cmp.Compare(y.Weight, x.Weight) })

	live := g.N // chains left
	if !extTSP {
		// Pettis-Hansen: one pass over edges by weight.
		for _, e := range edges {
			a, b := nodes[e.From].chain, nodes[e.To].chain
			// b == e.To: the target heads its chain. The entry block must
			// remain a chain head.
			if a != b && nodes[a].tail == int32(e.From) && b == int32(e.To) && b != 0 {
				merge(a, b)
				live--
			}
		}
	} else {
		// cache+: iterate merges by score gain. The score of joining
		// chain A before chain B is the weight of edges that become
		// fall-throughs (tail(A)->head(B)) plus a distance-discounted
		// bonus for edges from anywhere in A to head(B).
		for live > 1 {
			bestA, bestB := int32(-1), int32(-1)
			var bestGain float64
			// An edge inside one chain, or into a block that no longer
			// heads a chain or into the entry chain, has scored for the
			// last time — chains only grow — so each scan drops them,
			// keeping the others in order.
			kept := edges[:0]
			for _, e := range edges {
				a, b := nodes[e.From].chain, nodes[e.To].chain
				if a == b || b != int32(e.To) || b == 0 {
					continue
				}
				kept = append(kept, e)
				var gain float64
				if nodes[a].tail == int32(e.From) {
					gain = float64(e.Weight) // perfect fall-through
				} else if nodes[a].size-nodes[e.From].end < 1024 {
					// Forward jump from inside A to the start of B:
					// counted while the source sits near A's end.
					gain = 0.1 * float64(e.Weight)
				}
				if gain > bestGain {
					bestGain, bestA, bestB = gain, a, b
				}
			}
			edges = kept
			if bestA < 0 {
				break
			}
			merge(bestA, bestB)
			live--
		}
	}

	// Order chains: entry chain first, then by hotness (chain execution
	// weight); equally hot chains stay in order of their lowest block.
	heads := make([]int32, 0, live)
	for i := range nodes {
		if c := nodes[i].chain; !nodes[c].listed {
			nodes[c].listed = true
			heads = append(heads, c)
		}
	}
	slices.SortStableFunc(heads, func(x, y int32) int {
		if (x == 0) != (y == 0) {
			if x == 0 {
				return -1
			}
			return 1
		}
		return cmp.Compare(nodes[y].weight, nodes[x].weight)
	})

	out := make([]int, 0, g.N)
	for _, c := range heads {
		for blk := c; blk >= 0; blk = nodes[blk].next {
			out = append(out, int(blk))
		}
	}
	return out
}

// Score evaluates an order with the ext-TSP objective: edge weight earns
// full credit on fall-through, partial credit for short forward jumps,
// and a sliver for short backward jumps. Used by tests and ablations.
func Score(g *Graph, order []int) float64 {
	pos := make([]int, g.N)
	offset := make([]int, g.N)
	off := 0
	for i, b := range order {
		pos[b] = i
		offset[b] = off
		if b < len(g.Size) {
			off += g.Size[b]
		}
	}
	var s float64
	for _, e := range g.Edges {
		if e.From == e.To {
			continue
		}
		srcEnd := offset[e.From]
		if e.From < len(g.Size) {
			srcEnd += g.Size[e.From]
		}
		dst := offset[e.To]
		dist := dst - srcEnd
		switch {
		case pos[e.To] == pos[e.From]+1:
			s += float64(e.Weight)
		case dist > 0 && dist < 1024:
			s += 0.1 * float64(e.Weight) * (1 - float64(dist)/1024)
		case dist < 0 && -dist < 640:
			s += 0.1 * float64(e.Weight) * (1 - float64(-dist)/640)
		}
	}
	return s
}
