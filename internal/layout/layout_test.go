package layout

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// diamond returns a CFG: 0 -> {1 hot, 2 cold} -> 3.
func diamond() *Graph {
	return &Graph{
		N:      4,
		Weight: []uint64{100, 90, 10, 100},
		Size:   []int{16, 32, 64, 8},
		Edges: []Edge{
			{From: 0, To: 1, Weight: 90},
			{From: 0, To: 2, Weight: 10},
			{From: 1, To: 3, Weight: 90},
			{From: 2, To: 3, Weight: 10},
		},
	}
}

func validPermutation(t *testing.T, g *Graph, order []int) {
	t.Helper()
	if len(order) != g.N {
		t.Fatalf("order has %d entries, want %d", len(order), g.N)
	}
	if order[0] != 0 {
		t.Fatalf("entry block must stay first, got %v", order)
	}
	seen := make([]bool, g.N)
	for _, b := range order {
		if b < 0 || b >= g.N || seen[b] {
			t.Fatalf("invalid permutation %v", order)
		}
		seen[b] = true
	}
}

func TestAlgorithmsProduceValidPermutations(t *testing.T) {
	g := diamond()
	for _, algo := range []Algorithm{AlgoNone, AlgoPH, AlgoCache} {
		validPermutation(t, g, new(Scratch).Reorder(g, algo))
	}
}

func TestHotPathFallsThrough(t *testing.T) {
	g := diamond()
	for _, algo := range []Algorithm{AlgoPH, AlgoCache} {
		order := new(Scratch).Reorder(g, algo)
		pos := make([]int, g.N)
		for i, b := range order {
			pos[b] = i
		}
		// The hot chain 0 -> 1 -> 3 must be consecutive.
		if pos[1] != pos[0]+1 || pos[3] != pos[1]+1 {
			t.Errorf("%s: hot path not contiguous: %v", algo, order)
		}
		// And must beat the identity layout on the ext-TSP score.
		id := new(Scratch).Reorder(g, AlgoNone)
		if Score(g, order) < Score(g, id) {
			t.Errorf("%s: score %f worse than identity %f", algo, Score(g, order), Score(g, id))
		}
	}
}

func TestLoopBody(t *testing.T) {
	// 0 -> 1 (head) -> 2 (body) -> 1, 1 -> 3 (exit).
	g := &Graph{
		N:      4,
		Weight: []uint64{10, 110, 100, 10},
		Size:   []int{8, 8, 24, 8},
		Edges: []Edge{
			{From: 0, To: 1, Weight: 10},
			{From: 1, To: 2, Weight: 100},
			{From: 2, To: 1, Weight: 100},
			{From: 1, To: 3, Weight: 10},
		},
	}
	order := new(Scratch).Reorder(g, AlgoCache)
	pos := make([]int, g.N)
	for i, b := range order {
		pos[b] = i
	}
	if pos[2] != pos[1]+1 {
		t.Errorf("loop body must follow head: %v", order)
	}
}

func TestReorderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	check := func() bool {
		n := 2 + r.Intn(20)
		g := &Graph{N: n}
		for i := 0; i < n; i++ {
			g.Weight = append(g.Weight, uint64(r.Intn(1000)))
			g.Size = append(g.Size, 4+r.Intn(120))
		}
		for i := 0; i < n*2; i++ {
			g.Edges = append(g.Edges, Edge{
				From: r.Intn(n), To: r.Intn(n), Weight: uint64(r.Intn(500)),
			})
		}
		for _, algo := range []Algorithm{AlgoPH, AlgoCache} {
			order := new(Scratch).Reorder(g, algo)
			if len(order) != n || order[0] != 0 {
				return false
			}
			seen := map[int]bool{}
			for _, b := range order {
				if seen[b] {
					return false
				}
				seen[b] = true
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Algorithm
		ok   bool
	}{
		{"none", AlgoNone, true},
		{"ph", AlgoPH, true},
		{"cache+", AlgoCache, true},
		{"reverse", "", false},
		{"", "", false},
		{"bogus", "", false},
		{"Cache+", "", false},
	} {
		got, err := ParseAlgorithm(tc.in)
		if got != tc.want || (err == nil) != tc.ok {
			t.Errorf("ParseAlgorithm(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "none, ph, or cache+") {
			t.Errorf("ParseAlgorithm(%q) error does not name the valid values: %v", tc.in, err)
		}
	}
}
