package obsv

import (
	"reflect"
	"testing"
)

// Counter ids are indices into testDefs.
const (
	idTotal = iota
	idA
	idB
	idC
)

func testDefs() []Def {
	return []Def{
		idTotal: {Name: "total", Help: "parent"},
		idA:     {Name: "a", Help: "part a", SumTo: "total"},
		idB:     {Name: "b", Help: "part b", SumTo: "total"},
		idC:     {Name: "c", Help: "outside any sum"},
	}
}

func TestCountersAliasAndMerge(t *testing.T) {
	r := NewRegistry(testDefs())
	stats := r.Counters()
	r.Add(idA, 3)
	r.Merge([]int64{idB: 4, idTotal: 7, idC: 0})
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
	if s["a"] != 1 {
		t.Errorf("snapshot mutated: %v", s)
	}
	var live [idC + 1]int64
	r.CopyCounts(live[:])
	if live[idA] != 2 {
		t.Errorf("live count = %d", live[idA])
	}
}
