package hfsort

import (
	"slices"
	"strings"
	"testing"
)

func graph() *Graph {
	return &Graph{
		N:      5,
		Names:  []string{"hot1", "hot2", "callee", "warm", "cold"},
		Weight: []uint64{1000, 900, 800, 100, 1},
		Size:   []uint64{512, 256, 128, 2048, 64},
		Edges: []Edge{
			{From: 0, To: 2, Weight: 800}, // hot1 -> callee
			{From: 3, To: 2, Weight: 50},  // warm -> callee
			{From: 1, To: 3, Weight: 90},  // hot2 -> warm
		},
	}
}

// pair is two functions, a (weight 100) calling b (weight 90), both
// bigger than half a page.
func pair() *Graph {
	return &Graph{
		N:      2,
		Names:  []string{"a", "b"},
		Weight: []uint64{100, 90},
		Size:   []uint64{4000, 5000},
		Edges:  []Edge{{From: 0, To: 1, Weight: 90}},
	}
}

// names maps an order of g's nodes back to function names.
func names(g *Graph, order []int) []string {
	out := make([]string, len(order))
	for i, n := range order {
		out[i] = g.Names[n]
	}
	return out
}

func TestExecOrder(t *testing.T) {
	g := graph()
	order := names(g, Order(g, AlgoExec))
	if order[0] != "hot1" || order[1] != "hot2" {
		t.Fatalf("exec order wrong: %v", order)
	}
}

func TestHFSortClustersCalleeWithCaller(t *testing.T) {
	g := graph()
	order := names(g, Order(g, AlgoHFSort))
	hi := slices.Index(order, "hot1")
	ci := slices.Index(order, "callee")
	if hi < 0 || ci < 0 {
		t.Fatalf("missing functions in %v", order)
	}
	if ci != hi+1 {
		t.Errorf("callee should directly follow its heaviest caller: %v", order)
	}
	if slices.Index(order, "cold") < slices.Index(order, "hot2") {
		t.Errorf("cold function placed before hot: %v", order)
	}
}

func TestHFSortRespectsPageBound(t *testing.T) {
	// b is bigger than a page: the classic algorithm must not merge.
	g := pair()
	order := names(g, Order(g, AlgoHFSort))
	// Both present, order by density; no crash is the main property.
	if len(order) != 2 || slices.Index(order, "a") < 0 || slices.Index(order, "b") < 0 {
		t.Fatalf("bad order %v", order)
	}
}

func TestHFSortPlusMergesBigger(t *testing.T) {
	g := pair()
	order := names(g, Order(g, AlgoPlus))
	if slices.Index(order, "b") != slices.Index(order, "a")+1 {
		t.Errorf("hfsort+ should merge beyond one page: %v", order)
	}
}

func TestNoneReturnsNil(t *testing.T) {
	if Order(graph(), AlgoNone) != nil {
		t.Fatal("none must return nil (keep original order)")
	}
}

func TestEmptyGraph(t *testing.T) {
	if out := Order(&Graph{}, AlgoHFSort); len(out) != 0 {
		t.Fatalf("expected empty order, got %v", out)
	}
}

func TestDeterminism(t *testing.T) {
	g := graph()
	a := Order(g, AlgoPlus)
	b := Order(g, AlgoPlus)
	if !slices.Equal(a, b) {
		t.Fatalf("non-deterministic order: %v vs %v", a, b)
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Algorithm
		ok   bool
	}{
		{"none", AlgoNone, true},
		{"exec", AlgoExec, true},
		{"hfsort", AlgoHFSort, true},
		{"hfsort+", AlgoPlus, true},
		{"", "", false},
		{"nonsense", "", false},
		{"hfsort++", "", false},
	} {
		got, err := ParseAlgorithm(tc.in)
		if got != tc.want || (err == nil) != tc.ok {
			t.Errorf("ParseAlgorithm(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "none, exec, hfsort, or hfsort+") {
			t.Errorf("ParseAlgorithm(%q) error does not name the valid values: %v", tc.in, err)
		}
	}
}
