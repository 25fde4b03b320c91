package passes

import (
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/layout"
	"gobolt/internal/workload"
)

// TestMarkColdRule pins the splitting rule: a non-entry block whose count
// is at most 1/64 of the function's hottest goes cold, a landing pad
// included, and the entry stays hot whatever its count. With
// SplitFunctions off no block goes cold.
func TestMarkColdRule(t *testing.T) {
	const top = 6400
	names := []string{"entry", "hottest", "at-threshold", "above-threshold", "landing-pad"}
	blocks := []*core.BasicBlock{
		{ExecCount: 0},
		{ExecCount: top},
		{ExecCount: top / 64},
		{ExecCount: top/64 + 1},
		{ExecCount: 0, IsLP: true},
	}
	wantCold := map[string]bool{"at-threshold": true, "landing-pad": true}
	for _, split := range []bool{true, false} {
		opts := core.DefaultOptions()
		opts.ReorderBlocks = layout.AlgoNone // keep the block order as built
		opts.SplitFunctions = split
		fn := &core.BinaryFunction{Name: "f", Sampled: true}
		for i, b := range blocks {
			nb := *b
			nb.Index, nb.ID = i, core.BlockID(i)
			fn.Blocks = append(fn.Blocks, &nb)
		}
		fc := &core.FuncCtx{BinaryContext: &core.BinaryContext{Opts: opts}}
		if err := (ReorderBBs{}).RunOnFunction(fc, fn); err != nil {
			t.Fatal(err)
		}
		for _, b := range fn.Blocks {
			name := names[b.ID]
			if want := split && wantCold[name]; b.IsCold != want {
				t.Errorf("SplitFunctions=%v: %s (count %d) cold = %v, want %v", split, name, b.ExecCount, b.IsCold, want)
			}
		}
		if fn.IsSplit() != split {
			t.Errorf("SplitFunctions=%v: function split = %v", split, fn.IsSplit())
		}
	}
}

// TestWarmWorkerLayoutAndLivenessAllocateNothing: reorder-bbs and the
// liveness behind frame-opts work in the FuncCtx buffers a worker keeps
// for the session. Once a worker has laid out and analysed every
// function of a binary, doing it all again allocates nothing.
func TestWarmWorkerLayoutAndLivenessAllocateNothing(t *testing.T) {
	f, _ := linkWorkload(t, workload.Proxygen())
	ctx := loadProfiled(t, f, core.DefaultOptions())
	fc := &core.FuncCtx{BinaryContext: ctx}
	funcs := ctx.SimpleFuncs()
	laidOut := 0
	pass := func() {
		for _, fn := range funcs {
			if err := (ReorderBBs{}).RunOnFunction(fc, fn); err != nil {
				t.Fatal(err)
			}
			flagsLiveOut(fn, &fc.Dataflow)
		}
	}
	pass() // warm the worker: its buffers reach their sizes
	for _, fn := range funcs {
		if fn.Sampled && len(fn.Blocks) > 2 {
			laidOut++
		}
	}
	if laidOut < 10 {
		t.Fatalf("%d functions laid out; the rule needs several", laidOut)
	}
	if n := testing.AllocsPerRun(5, pass); n != 0 {
		t.Errorf("a warmed worker allocated %v times laying out %d functions and analysing %d", n, laidOut, len(funcs))
	}
}
