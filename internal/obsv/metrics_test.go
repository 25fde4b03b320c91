package obsv

import (
	"reflect"
	"testing"
)

// Metric ids are indices into testDefs.
const (
	idTotal = iota
	idA
	idB
	idG
	idH
)

func testDefs() []Def {
	return []Def{
		idTotal: {Name: "total", Kind: Counter, Help: "parent"},
		idA:     {Name: "a", Kind: Counter, Help: "part a", SumTo: "total"},
		idB:     {Name: "b", Kind: Counter, Help: "part b", SumTo: "total"},
		idG:     {Name: "g", Kind: Gauge, Help: "a gauge"},
		idH:     {Name: "h", Kind: HistogramKind, Help: "a hist", Buckets: []float64{0.5, 1.0}},
	}
}

func TestCountersAliasAndMerge(t *testing.T) {
	r := NewRegistry(testDefs())
	stats := r.Counters()
	r.Add(idA, 3)
	r.Merge([]int64{idB: 4, idTotal: 7, idH: 0})
	if !reflect.DeepEqual(stats, map[string]int64{"a": 3, "b": 4, "total": 7}) {
		t.Fatalf("aliased map = %v", stats)
	}
	if err := r.CheckSums(); err != nil {
		t.Fatal(err)
	}
	r.Add(idA, 1)
	if err := r.CheckSums(); err == nil {
		t.Fatal("CheckSums passed with 8 != 7")
	}
	// A counter has a key iff it is non-zero.
	r.Add(idA, -4)
	if _, ok := stats["a"]; ok {
		t.Fatalf("zero counter kept its key: %v", stats)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := NewRegistry(testDefs())
	r.Add(idA, 1)
	s := r.Snapshot()
	r.Add(idA, 1)
	if s.Counters["a"] != 1 {
		t.Errorf("snapshot mutated: %v", s.Counters)
	}
	var live [idH + 1]int64
	r.CopyCounts(live[:])
	if live[idA] != 2 {
		t.Errorf("live count = %d", live[idA])
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry(testDefs())
	r.Observe(idH, "x", 0.25)
	r.Observe(idH, "y", 0.75)
	r.Observe(idH, "z", 2.0)
	r.SetGauge(idG, 0.5)
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %+v", s.Histograms)
	}
	h := s.Histograms[0]
	if h.Count != 3 || h.Min != 0.25 || h.Max != 2.0 {
		t.Fatalf("h = %+v", h)
	}
	if !reflect.DeepEqual(h.Counts, []int64{1, 1, 1}) {
		t.Errorf("bucket counts = %v", h.Counts)
	}
	// Worst list is ascending by value: the lowest-quality functions first.
	if h.Worst[0].Label != "x" || h.Worst[1].Label != "y" || h.Worst[2].Label != "z" {
		t.Errorf("worst = %+v", h.Worst)
	}
	if s.Gauges["g"] != 0.5 {
		t.Errorf("gauges = %v", s.Gauges)
	}
}

func TestHistogramWorstCap(t *testing.T) {
	r := NewRegistry([]Def{{Name: "h", Kind: HistogramKind, Buckets: []float64{1}}})
	for i := 0; i < 3*maxWorstObs; i++ {
		r.Observe(0, "f", float64(i))
	}
	h := r.Snapshot().Histograms[0]
	if len(h.Worst) != maxWorstObs {
		t.Fatalf("worst len = %d, want %d", len(h.Worst), maxWorstObs)
	}
	if h.Worst[0].Value != 0 || h.Worst[maxWorstObs-1].Value != float64(maxWorstObs-1) {
		t.Errorf("worst = %+v", h.Worst)
	}
}
