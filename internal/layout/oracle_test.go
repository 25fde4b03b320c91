package layout

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refChain and refChainLayout are chainLayout as it stood before the
// slab rewrite (one heap object per chain, the chain list rebuilt on
// every merge), kept as the oracle: the rewrite must return the same
// permutation for every graph.
type refChain struct {
	blocks []int
}

func refChainLayout(g *Graph, extTSP bool) []int {
	chainOf := make([]*refChain, g.N)
	for i := 0; i < g.N; i++ {
		chainOf[i] = &refChain{blocks: []int{i}}
	}
	head := func(c *refChain) int { return c.blocks[0] }
	tail := func(c *refChain) int { return c.blocks[len(c.blocks)-1] }
	merge := func(a, b *refChain) *refChain {
		a.blocks = append(a.blocks, b.blocks...)
		for _, blk := range b.blocks {
			chainOf[blk] = a
		}
		return a
	}

	edges := append([]Edge(nil), g.Edges...)
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].Weight > edges[j].Weight })

	if !extTSP {
		for _, e := range edges {
			if e.From == e.To || e.Weight == 0 {
				continue
			}
			a, b := chainOf[e.From], chainOf[e.To]
			if a == b {
				continue
			}
			if tail(a) == e.From && head(b) == e.To && head(b) != 0 {
				merge(a, b)
			}
		}
	} else {
		for {
			var bestA, bestB *refChain
			var bestGain float64
			seen := map[*refChain]bool{}
			var chains []*refChain
			for i := 0; i < g.N; i++ {
				if c := chainOf[i]; !seen[c] {
					seen[c] = true
					chains = append(chains, c)
				}
			}
			if len(chains) <= 1 {
				break
			}
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
					gain = float64(e.Weight)
				} else if head(b) == e.To {
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

	seen := map[*refChain]bool{}
	var chains []*refChain
	for i := 0; i < g.N; i++ {
		if c := chainOf[i]; !seen[c] {
			seen[c] = true
			chains = append(chains, c)
		}
	}
	weightOf := func(c *refChain) uint64 {
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

// randomGraph draws a layout problem that leans on the tie-breaks: few
// distinct weights (so equal-weight edges and equally hot chains are
// common), zero-weight, self and duplicate edges, blocks no edge touches,
// and block sizes on both sides of the 1024-byte jump window.
func randomGraph(r *rand.Rand) *Graph {
	n := 1 + r.Intn(40)
	g := &Graph{N: n}
	weights := []uint64{0, 0, 1, 5, 5, 100, 100, 1000}
	if r.Intn(3) == 0 {
		weights = []uint64{7} // everything ties
	}
	maxSize := []int{16, 200, 900}[r.Intn(3)]
	for i := 0; i < n; i++ {
		g.Weight = append(g.Weight, weights[r.Intn(len(weights))])
		g.Size = append(g.Size, 1+r.Intn(maxSize))
	}
	reach := n
	if r.Intn(4) == 0 {
		reach = 1 + n/2 // the upper blocks are unreachable
	}
	for i, m := 0, r.Intn(3*n+1); i < m; i++ {
		e := Edge{From: r.Intn(reach), To: r.Intn(reach), Weight: weights[r.Intn(len(weights))]}
		switch r.Intn(8) {
		case 0:
			e.To = e.From
		case 1:
			e.To = min(e.From+1, n-1) // a fall-through in input order
		}
		g.Edges = append(g.Edges, e)
	}
	return g
}

// TestChainLayoutMatchesReference: same permutation as the reference for
// ph and cache+ on seeded random graphs, and the input graph untouched.
func TestChainLayoutMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 1500; i++ {
		g := randomGraph(r)
		edges := slices.Clone(g.Edges)
		for _, extTSP := range []bool{false, true} {
			want := refChainLayout(g, extTSP)
			got := new(Scratch).chainLayout(g, extTSP)
			if !slices.Equal(got, want) {
				t.Fatalf("graph %d extTSP=%v:\n got  %v\n want %v\n graph %+v", i, extTSP, got, want, *g)
			}
		}
		if !slices.Equal(g.Edges, edges) {
			t.Fatalf("graph %d: chainLayout reordered the caller's edges", i)
		}
	}
}
