// Package layout implements basic-block ordering algorithms for the
// reorder-bbs pass (Table 1, pass 9): Pettis–Hansen bottom-up chaining
// and the "cache+" algorithm (an ext-TSP-style chain merger that scores
// fall-through and short-jump proximity), plus trivial baselines for
// ablation benchmarks.
package layout

import (
	"fmt"
	"sort"
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

type chain struct {
	blocks []int
	size   int
}

// chainLayout builds chains by merging along heavy edges. In PH mode,
// merges happen in strict edge-weight order when endpoints match. In
// cache+ (ext-TSP-like) mode, merges are chosen by a proximity score that
// also rewards short forward jumps, iterating until no positive gain.
func chainLayout(g *Graph, extTSP bool) []int {
	chainOf := make([]*chain, g.N)
	for i := 0; i < g.N; i++ {
		sz := 1
		if i < len(g.Size) {
			sz = g.Size[i]
		}
		chainOf[i] = &chain{blocks: []int{i}, size: sz}
	}
	head := func(c *chain) int { return c.blocks[0] }
	tail := func(c *chain) int { return c.blocks[len(c.blocks)-1] }
	merge := func(a, b *chain) *chain {
		a.blocks = append(a.blocks, b.blocks...)
		a.size += b.size
		for _, blk := range b.blocks {
			chainOf[blk] = a
		}
		return a
	}

	edges := append([]Edge(nil), g.Edges...)
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].Weight > edges[j].Weight })

	if !extTSP {
		// Pettis-Hansen: one pass over edges by weight.
		for _, e := range edges {
			if e.From == e.To || e.Weight == 0 {
				continue
			}
			a, b := chainOf[e.From], chainOf[e.To]
			if a == b {
				continue
			}
			// Entry block must remain a chain head.
			if tail(a) == e.From && head(b) == e.To && head(b) != 0 {
				merge(a, b)
			}
		}
	} else {
		// cache+: iterate merges by score gain. The score of joining
		// chain A before chain B is the weight of edges that become
		// fall-throughs (tail(A)->head(B)) plus a distance-discounted
		// bonus for edges from anywhere in A to head(B).
		for {
			var bestA, bestB *chain
			var bestGain float64
			seen := map[*chain]bool{}
			var chains []*chain
			for i := 0; i < g.N; i++ {
				if c := chainOf[i]; !seen[c] {
					seen[c] = true
					chains = append(chains, c)
				}
			}
			if len(chains) <= 1 {
				break
			}
			// Index edges by (tailBlock, headBlock) pairs for scoring.
			for _, e := range edges {
				if e.Weight == 0 || e.From == e.To {
					continue
				}
				a, b := chainOf[e.From], chainOf[e.To]
				if a == b || head(b) == 0 {
					continue
				}
				var gain float64
				if tail(a) == e.From && head(b) == e.To {
					gain = float64(e.Weight) // perfect fall-through
				} else if head(b) == e.To {
					// Forward jump from inside A to the start of B:
					// discounted by how far the source sits from A's end.
					dist := 0
					found := false
					for i := len(a.blocks) - 1; i >= 0; i-- {
						if a.blocks[i] == e.From {
							found = true
							break
						}
						if i < len(g.Size) {
							dist += g.Size[a.blocks[i]]
						}
					}
					if found && dist < 1024 {
						gain = 0.1 * float64(e.Weight)
					}
				}
				if gain > bestGain {
					bestGain, bestA, bestB = gain, a, b
				}
			}
			if bestA == nil || bestGain <= 0 {
				break
			}
			merge(bestA, bestB)
		}
	}

	// Order chains: entry chain first, then by connection-weighted
	// hotness (total edge weight into placed chains, falling back to
	// chain execution weight).
	seen := map[*chain]bool{}
	var chains []*chain
	for i := 0; i < g.N; i++ {
		if c := chainOf[i]; !seen[c] {
			seen[c] = true
			chains = append(chains, c)
		}
	}
	weightOf := func(c *chain) uint64 {
		var w uint64
		for _, b := range c.blocks {
			if b < len(g.Weight) {
				w += g.Weight[b]
			}
		}
		return w
	}
	sort.SliceStable(chains, func(i, j int) bool {
		ci, cj := chains[i], chains[j]
		if (head(ci) == 0) != (head(cj) == 0) {
			return head(ci) == 0
		}
		return weightOf(ci) > weightOf(cj)
	})

	var out []int
	for _, c := range chains {
		out = append(out, c.blocks...)
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
