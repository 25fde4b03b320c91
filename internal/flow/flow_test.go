package flow

import (
	"math/rand"
	"testing"
)

// checkConserved asserts the result satisfies the flow equations: every
// node with successors carries exactly its out-flow, and every node
// that is neither an entry nor predecessor-less receives exactly its
// count as in-flow.
func checkConserved(t *testing.T, nodes []Node, res Result) {
	t.Helper()
	hasPred := make([]bool, len(nodes))
	inflow := make([]uint64, len(nodes))
	for i := range nodes {
		for k, e := range nodes[i].Succs {
			hasPred[e.To] = true
			inflow[e.To] += res.EdgeCounts[i][k]
		}
	}
	for i := range nodes {
		if len(nodes[i].Succs) > 0 {
			var out uint64
			for k := range nodes[i].Succs {
				out += res.EdgeCounts[i][k]
			}
			if res.NodeCounts[i] != out {
				t.Errorf("node %d: count %d != outflow %d", i, res.NodeCounts[i], out)
			}
		}
		if hasPred[i] && !nodes[i].IsEntry && res.NodeCounts[i] != inflow[i] {
			t.Errorf("node %d: count %d != inflow %d", i, res.NodeCounts[i], inflow[i])
		}
	}
}

// TestDiamondFromSamples reconstructs edges of a diamond CFG from block
// samples alone (the non-LBR case): entry -> {left, right} -> exit.
func TestDiamondFromSamples(t *testing.T) {
	nodes := []Node{
		{Weight: 100, IsEntry: true, Succs: []Succ{{To: 1, Cost: CostTaken}, {To: 2, Cost: CostFallThrough}}},
		{Weight: 30, Succs: []Succ{{To: 3, Cost: CostTaken}}},
		{Weight: 70, Succs: []Succ{{To: 3, Cost: CostFallThrough}}},
		{Weight: 100},
	}
	res := new(Solver).Infer(nodes)
	if res.Residual != 0 {
		t.Fatalf("residual %d", res.Residual)
	}
	checkConserved(t, nodes, res)
	if res.EdgeCounts[0][0] != 30 || res.EdgeCounts[0][1] != 70 {
		t.Errorf("split edges = %v, want [30 70]", res.EdgeCounts[0])
	}
	if res.NodeCounts[3] != 100 {
		t.Errorf("exit count = %d, want 100", res.NodeCounts[3])
	}
}

// TestColdEntryInflated: a hot loop body with an unsampled entry block
// must pull the entry count up to the loop's entry flow — the scenario
// behind the fn.ExecCount bug this PR fixes.
func TestColdEntryInflated(t *testing.T) {
	// entry(0 samples) -> loop(1000) -> loop | exit(10)
	nodes := []Node{
		{Weight: 0, IsEntry: true, Succs: []Succ{{To: 1, Cost: CostFallThrough}}},
		{Weight: 1000, Succs: []Succ{{To: 1, Cost: CostBackward}, {To: 2, Cost: CostFallThrough}}},
		{Weight: 10},
	}
	res := new(Solver).Infer(nodes)
	checkConserved(t, nodes, res)
	if res.NodeCounts[0] == 0 {
		t.Fatal("entry count stayed 0 despite hot loop downstream")
	}
	if res.NodeCounts[1] != 1000 {
		t.Errorf("loop count = %d, want 1000 (samples preserved)", res.NodeCounts[1])
	}
	// Loop entry flow + back edge must feed the body exactly.
	if got := res.EdgeCounts[0][0] + res.EdgeCounts[1][0]; got != 1000 {
		t.Errorf("loop inflow = %d, want 1000", got)
	}
}

// TestSurplusPrefersFallThrough: with equal evidence, surplus flow must
// ride the cheaper (fall-through) edge, mirroring §5.2's layout trust.
func TestSurplusPrefersFallThrough(t *testing.T) {
	nodes := []Node{
		{Weight: 100, IsEntry: true, Succs: []Succ{{To: 1, Cost: CostTaken}, {To: 2, Cost: CostFallThrough}}},
		{Weight: 0, Succs: []Succ{{To: 3, Cost: CostTaken}}},
		{Weight: 0, Succs: []Succ{{To: 3, Cost: CostFallThrough}}},
		{Weight: 0},
	}
	res := new(Solver).Infer(nodes)
	checkConserved(t, nodes, res)
	if res.EdgeCounts[0][1] != 100 || res.EdgeCounts[0][0] != 0 {
		t.Errorf("surplus took the taken edge: %v", res.EdgeCounts[0])
	}
}

// TestLBRRepairMinimalAdjustment seeds measured edge counts that are
// slightly inconsistent (the LBR/stale case) and checks the solver
// repairs them without discarding the evidence.
func TestLBRRepairMinimalAdjustment(t *testing.T) {
	// entry(100) --90--> a(100) --100--> exit: the entry->a edge lost
	// 10 counts (sampling skid); repair must top it up, not cut a.
	nodes := []Node{
		{Weight: 100, IsEntry: true, Succs: []Succ{{To: 1, Weight: 90, Cost: CostFallThrough}}},
		{Weight: 100, Succs: []Succ{{To: 2, Weight: 100, Cost: CostFallThrough}}},
		{Weight: 100},
	}
	res := new(Solver).Infer(nodes)
	if res.Residual != 0 {
		t.Fatalf("residual %d", res.Residual)
	}
	checkConserved(t, nodes, res)
	if res.EdgeCounts[0][0] != 100 {
		t.Errorf("entry->a repaired to %d, want 100", res.EdgeCounts[0][0])
	}
	if res.NodeCounts[1] != 100 {
		t.Errorf("a cut to %d, want 100", res.NodeCounts[1])
	}
}

// TestDanglingBlockKeepsSamples: a block with no preds and no succs
// (orphaned by disassembly quirks) keeps its measured weight.
func TestDanglingBlockKeepsSamples(t *testing.T) {
	nodes := []Node{
		{Weight: 50, IsEntry: true, Succs: []Succ{{To: 1, Cost: CostFallThrough}}},
		{Weight: 50},
		{Weight: 7}, // dangling
	}
	res := new(Solver).Infer(nodes)
	checkConserved(t, nodes, res)
	if res.NodeCounts[2] != 7 {
		t.Errorf("dangling block count = %d, want 7", res.NodeCounts[2])
	}
}

// TestEmpty covers the degenerate inputs.
func TestEmpty(t *testing.T) {
	if res := new(Solver).Infer(nil); len(res.NodeCounts) != 0 {
		t.Fatal("non-empty result for empty input")
	}
	res := new(Solver).Infer([]Node{{Weight: 3, IsEntry: true}})
	if res.NodeCounts[0] != 3 {
		t.Fatalf("single node count %d, want 3", res.NodeCounts[0])
	}
}

// TestRandomCFGsConserve is the property test: pseudo-random CFGs with
// random sparse sample weights always infer to an exactly conserving
// assignment with zero residual.
func TestRandomCFGsConserve(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(30)
		nodes := make([]Node, n)
		nodes[0].IsEntry = true
		for i := 0; i < n; i++ {
			// Sparse samples: many blocks unsampled, like real PC data.
			if rng.Intn(3) > 0 {
				nodes[i].Weight = uint64(rng.Intn(10000))
			}
			if i == n-1 {
				continue // keep at least one exit
			}
			succs := rng.Intn(3)
			seen := map[int]bool{}
			for k := 0; k < succs; k++ {
				to := 1 + rng.Intn(n-1)
				if seen[to] {
					continue
				}
				seen[to] = true
				cost := int64(CostTaken)
				if to <= i {
					cost = CostBackward
				} else if to == i+1 {
					cost = CostFallThrough
				}
				sc := Succ{To: to, Cost: cost}
				if rng.Intn(2) == 0 {
					sc.Weight = uint64(rng.Intn(5000)) // LBR-ish partial edges
				}
				nodes[i].Succs = append(nodes[i].Succs, sc)
			}
		}
		res := new(Solver).Infer(nodes)
		if res.Residual != 0 {
			t.Fatalf("trial %d: residual %d", trial, res.Residual)
		}
		checkConserved(t, nodes, res)
	}
}

// TestDeterministic: the same problem always yields the same assignment.
func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 20
	nodes := make([]Node, n)
	nodes[0].IsEntry = true
	for i := 0; i < n-1; i++ {
		nodes[i].Weight = uint64(rng.Intn(1000))
		nodes[i].Succs = []Succ{{To: i + 1, Cost: CostFallThrough}}
		if j := rng.Intn(n); j != i+1 {
			nodes[i].Succs = append(nodes[i].Succs, Succ{To: j, Cost: CostTaken})
		}
	}
	first := new(Solver).Infer(nodes)
	for k := 0; k < 5; k++ {
		got := new(Solver).Infer(nodes)
		for i := range got.NodeCounts {
			if got.NodeCounts[i] != first.NodeCounts[i] {
				t.Fatalf("run %d: node %d diverged", k, i)
			}
			for e := range got.EdgeCounts[i] {
				if got.EdgeCounts[i][e] != first.EdgeCounts[i][e] {
					t.Fatalf("run %d: edge %d/%d diverged", k, i, e)
				}
			}
		}
	}
}

// TestUnsampledDiamondTakesShortArm: when neither arm of a diamond drew a
// sample, the flow goes through the arm whose silence says least — the
// two-instruction one, not the forty-instruction one — even against the
// fall-through preference.
func TestUnsampledDiamondTakesShortArm(t *testing.T) {
	nodes := []Node{
		{Weight: 100, Size: 4, IsEntry: true, Succs: []Succ{{To: 1, Cost: CostTaken}, {To: 2, Cost: CostFallThrough}}},
		{Size: 2, Succs: []Succ{{To: 3, Cost: CostTaken}}},
		{Size: 40, Succs: []Succ{{To: 3, Cost: CostFallThrough}}},
		{Weight: 100, Size: 4},
	}
	res := new(Solver).Infer(nodes)
	checkConserved(t, nodes, res)
	if res.NodeCounts[1] != 100 || res.NodeCounts[2] != 0 {
		t.Errorf("arm counts short=%d long=%d, want 100 and 0", res.NodeCounts[1], res.NodeCounts[2])
	}
	// Without sizes (execution counts, the LBR repair) a zero is a zero
	// and the fall-through arm wins, as TestSurplusPrefersFallThrough pins.
	for i := range nodes {
		nodes[i].Size = 0
	}
	if res = new(Solver).Infer(nodes); res.NodeCounts[2] != 100 {
		t.Errorf("unsized diamond: fall-through arm got %d, want 100", res.NodeCounts[2])
	}
}

// TestSampleWeight: equal executions give equal weights whatever the
// block length, and no sampled block rounds to zero.
func TestSampleWeight(t *testing.T) {
	const execs, period = 4096, 512
	short := SampleWeight(execs*1/period, 1)
	long := SampleWeight(execs*16/period, 16)
	if short != long {
		t.Errorf("1- and 16-instruction blocks run %d times weigh %d and %d", execs, short, long)
	}
	for _, size := range []int{1, 40, 100000} {
		if SampleWeight(1, size) == 0 {
			t.Errorf("one sample in a %d-instruction block weighs 0", size)
		}
	}
	if SampleWeight(0, 8) != 0 {
		t.Error("an unsampled block has weight")
	}
}
