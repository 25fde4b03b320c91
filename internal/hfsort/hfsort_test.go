package hfsort

import (
	"strings"
	"testing"

	"gobolt/internal/profile"
)

func graph() (*profile.CallGraph, map[string]uint64) {
	g := &profile.CallGraph{
		Nodes: map[string]uint64{
			"hot1": 1000, "hot2": 900, "callee": 800, "warm": 100, "cold": 1,
		},
		Edges: map[[2]string]uint64{
			{"hot1", "callee"}: 800,
			{"warm", "callee"}: 50,
			{"hot2", "warm"}:   90,
		},
	}
	sizes := map[string]uint64{"hot1": 512, "hot2": 256, "callee": 128, "warm": 2048, "cold": 64}
	return g, sizes
}

func indexOf(order []string, name string) int {
	for i, n := range order {
		if n == name {
			return i
		}
	}
	return -1
}

func TestExecOrder(t *testing.T) {
	g, sizes := graph()
	order := Order(g, sizes, AlgoExec)
	if order[0] != "hot1" || order[1] != "hot2" {
		t.Fatalf("exec order wrong: %v", order)
	}
}

func TestHFSortClustersCalleeWithCaller(t *testing.T) {
	g, sizes := graph()
	order := Order(g, sizes, AlgoHFSort)
	hi := indexOf(order, "hot1")
	ci := indexOf(order, "callee")
	if hi < 0 || ci < 0 {
		t.Fatalf("missing functions in %v", order)
	}
	if ci != hi+1 {
		t.Errorf("callee should directly follow its heaviest caller: %v", order)
	}
	if indexOf(order, "cold") < indexOf(order, "hot2") {
		t.Errorf("cold function placed before hot: %v", order)
	}
}

func TestHFSortRespectsPageBound(t *testing.T) {
	g := &profile.CallGraph{
		Nodes: map[string]uint64{"a": 100, "b": 90},
		Edges: map[[2]string]uint64{{"a", "b"}: 90},
	}
	// b is bigger than a page: the classic algorithm must not merge.
	sizes := map[string]uint64{"a": 4000, "b": 5000}
	order := Order(g, sizes, AlgoHFSort)
	if len(order) != 2 {
		t.Fatalf("bad order %v", order)
	}
	// Both present, order by density; no crash is the main property.
	if indexOf(order, "a") < 0 || indexOf(order, "b") < 0 {
		t.Fatalf("missing funcs: %v", order)
	}
}

func TestHFSortPlusMergesBigger(t *testing.T) {
	g := &profile.CallGraph{
		Nodes: map[string]uint64{"a": 100, "b": 90},
		Edges: map[[2]string]uint64{{"a", "b"}: 90},
	}
	sizes := map[string]uint64{"a": 4000, "b": 5000}
	order := Order(g, sizes, AlgoPlus)
	if indexOf(order, "b") != indexOf(order, "a")+1 {
		t.Errorf("hfsort+ should merge beyond one page: %v", order)
	}
}

func TestNoneReturnsNil(t *testing.T) {
	g, sizes := graph()
	if Order(g, sizes, AlgoNone) != nil {
		t.Fatal("none must return nil (keep original order)")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := &profile.CallGraph{Nodes: map[string]uint64{}, Edges: map[[2]string]uint64{}}
	if out := Order(g, nil, AlgoHFSort); len(out) != 0 {
		t.Fatalf("expected empty order, got %v", out)
	}
}

func TestDeterminism(t *testing.T) {
	g, sizes := graph()
	a := Order(g, sizes, AlgoPlus)
	b := Order(g, sizes, AlgoPlus)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order: %v vs %v", a, b)
		}
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
