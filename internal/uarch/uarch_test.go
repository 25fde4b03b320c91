package uarch

import (
	"math"
	"strings"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/ld"
	"gobolt/internal/vm"
	"gobolt/internal/workload"
)

func TestCacheBasics(t *testing.T) {
	c := newCache("test", 64, 4, 6) // 64 lines, 4-way, 64B lines
	if c.access(0x1000) {
		t.Fatal("cold miss expected")
	}
	if !c.access(0x1000) || !c.access(0x103F) {
		t.Fatal("same line must hit")
	}
	if c.access(0x1040) {
		t.Fatal("next line must miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache("test", 4, 4, 6) // one set, 4 ways: addresses with same set index
	addrs := []uint64{0x0000, 0x1000, 0x2000, 0x3000}
	for _, a := range addrs {
		c.access(a)
	}
	for _, a := range addrs {
		if !c.access(a) {
			t.Fatalf("addr %#x should still be resident", a)
		}
	}
	c.access(0x4000) // evicts LRU = 0x0000
	if c.access(0x0000) {
		t.Fatal("0x0000 should have been evicted")
	}
}

// TestCacheLRUAcrossStampWrap: recency order holds when the access stamp
// passes 2³², where a 32-bit stamp would wrap to 0 and make the most
// recently used way look the oldest.
func TestCacheLRUAcrossStampWrap(t *testing.T) {
	c := newCache("test", 2, 2, 6) // one set, 2 ways
	c.tick = math.MaxUint32 - 2
	c.access(0x0000)
	c.access(0x1000)
	c.access(0x0000) // hit; its stamp is the first past 2³²-1
	c.access(0x2000) // evicts LRU = 0x1000
	if !c.access(0x0000) {
		t.Error("0x0000, the most recently used way, was evicted")
	}
	if c.access(0x1000) {
		t.Error("0x1000, the least recently used way, is still resident")
	}
}

// TestNewRejectsNonPowerOfTwoSets: a structure whose set count is not a
// power of two panics, naming it and its sizes, instead of being rounded
// down to a smaller one, and so does an issue width or return stack below
// one entry; the default config builds.
func TestNewRejectsNonPowerOfTwoSets(t *testing.T) {
	New(DefaultConfig())
	New(Config{})
	for _, tc := range []struct {
		edit func(*Config)
		want string
	}{
		{func(c *Config) { c.L2 = CacheCfg{SizeKB: 384, Assoc: 8, LineLog: 6} }, "L2: 6144 × 64-byte entries in 8 ways make 768 sets"},
		{func(c *Config) { c.ITLB.Entries = 96 }, "ITLB: 96 × 4096-byte entries in 4 ways make 24 sets"},
		{func(c *Config) { c.BTBEntries = 3000 }, "BTB: 3000 entries"},
		{func(c *Config) { c.IssueWidth = 0 }, "IssueWidth 0 is below 1"},
		{func(c *Config) { c.RASDepth = 0 }, "RASDepth 0 is below 1"},
	} {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("New panicked with %q, want it to name %q", msg, tc.want)
				}
			}()
			New(cfg)
		}()
	}
}

func TestInstFetchCountsLinesOnce(t *testing.T) {
	s := New(DefaultConfig())
	s.Inst(0x400000, 4)
	s.Inst(0x400004, 4) // same line: no new access
	if s.M.L1IAccess != 1 {
		t.Fatalf("expected 1 line access, got %d", s.M.L1IAccess)
	}
	s.Inst(0x40003E, 4) // crosses into the next line
	if s.M.L1IAccess != 2 {
		t.Fatalf("expected 2 accesses after line cross, got %d", s.M.L1IAccess)
	}
}

func TestBranchRedirectResetsFetchLine(t *testing.T) {
	s := New(DefaultConfig())
	s.Inst(0x400000, 4)
	s.Branch(0x400004, 0x400000, true, vm.BrUncond)
	before := s.M.L1IAccess
	s.Inst(0x400000, 4) // same line, but after a redirect: counts again
	if s.M.L1IAccess != before+1 {
		t.Fatal("fetch line must reset after taken branch")
	}
}

func TestCondBranchPrediction(t *testing.T) {
	s := New(DefaultConfig())
	// Strongly biased branch: after warmup, no more mispredicts.
	for i := 0; i < 100; i++ {
		s.Branch(0x400100, 0x400200, true, vm.BrCond)
	}
	missesAfterWarmup := s.M.BranchMiss
	for i := 0; i < 100; i++ {
		s.Branch(0x400100, 0x400200, true, vm.BrCond)
	}
	if s.M.BranchMiss != missesAfterWarmup {
		t.Fatalf("biased branch kept mispredicting: %d -> %d",
			missesAfterWarmup, s.M.BranchMiss)
	}
}

func TestReturnAddressStack(t *testing.T) {
	s := New(DefaultConfig())
	s.Branch(0x400010, 0x400100, true, vm.BrCall)
	miss := s.M.BranchMiss
	s.Branch(0x400110, 0x400015, true, vm.BrRet) // returns right after the call
	if s.M.BranchMiss != miss {
		t.Fatal("matched return must predict")
	}
	s.Branch(0x400120, 0x500000, true, vm.BrRet) // bogus return target
	if s.M.BranchMiss != miss+1 {
		t.Fatal("mismatched return must mispredict")
	}
}

func TestTimingModel(t *testing.T) {
	s := New(DefaultConfig())
	for i := 0; i < 1024; i++ {
		s.Inst(0x400000+uint64(4*i), 4)
	}
	m := s.Finish()
	if m.Cycles == 0 || m.Instructions != 1024 {
		t.Fatalf("bad metrics: %+v", m)
	}
	if m.IPC() <= 0 || m.IPC() > float64(DefaultConfig().IssueWidth) {
		t.Fatalf("IPC out of range: %f", m.IPC())
	}
}

func TestHelpers(t *testing.T) {
	if Reduction(100, 80) != 0.2 {
		t.Error("Reduction wrong")
	}
	if Reduction(0, 5) != 0 {
		t.Error("Reduction zero-guard wrong")
	}
	a := &Metrics{Cycles: 110}
	b := &Metrics{Cycles: 100}
	if s := Speedup(a, b); s < 0.099 || s > 0.101 {
		t.Errorf("Speedup wrong: %f", s)
	}
	if MissRate(1, 0) != 0 {
		t.Error("MissRate zero-guard wrong")
	}
	if (&Metrics{}).Format() == "" {
		t.Error("Format must render")
	}
}

// The cycle stack of a whole preset run sums exactly to Cycles, and
// Format prints every part.
func TestCycleStackSumsToCycles(t *testing.T) {
	spec := workload.Tiny()
	spec.Iterations = 500
	objs, err := cc.Compile(workload.Generate(spec), cc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(res.File)
	if err != nil {
		t.Fatal(err)
	}
	sim := New(DefaultConfig())
	m.SetTracer(sim)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	got := sim.Finish()
	parts := got.BaseCycles + got.IMissCycles + got.DMissCycles + got.ITLBCycles +
		got.DTLBCycles + got.MispredCycles + got.TakenCycles
	if parts != got.Cycles {
		t.Fatalf("cycle stack sums to %d, Cycles = %d: %+v", parts, got.Cycles, got)
	}
	for name, v := range map[string]uint64{
		"base": got.BaseCycles, "i-miss": got.IMissCycles, "itlb": got.ITLBCycles,
		"mispredict": got.MispredCycles, "taken": got.TakenCycles,
	} {
		if v == 0 {
			t.Errorf("%s cycles = 0 on a whole program run", name)
		}
		if !strings.Contains(got.Format(), " "+name+" ") {
			t.Errorf("Format does not print %s cycles", name)
		}
	}
}
