package layout

import (
	"math/rand"
	"slices"
	"testing"
)

// TestScratchReuseMatchesReference: one Scratch reused across graphs of
// every size, for both chain algorithms and the input order, gives the
// reference order each time; a buffer left over from a larger graph
// must not leak into a smaller one's layout.
func TestScratchReuseMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	var s Scratch
	for i := 0; i < 1500; i++ {
		g := randomGraph(r)
		// Copy g into the scratch's own graph, as reorder-bbs fills it.
		sg := s.Graph(g.N, len(g.Edges))
		copy(sg.Weight, g.Weight)
		copy(sg.Size, g.Size)
		sg.Edges = append(sg.Edges, g.Edges...)
		for _, algo := range []Algorithm{AlgoPH, AlgoCache, AlgoNone} {
			var want []int
			switch algo {
			case AlgoNone:
				want = new(Scratch).Reorder(g, algo)
			default:
				want = refChainLayout(g, algo == AlgoCache)
			}
			if got := s.Reorder(sg, algo); !slices.Equal(got, want) {
				t.Fatalf("graph %d %s:\n got  %v\n want %v", i, algo, got, want)
			}
		}
	}
}
