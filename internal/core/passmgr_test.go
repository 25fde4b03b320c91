package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// The test passes borrow declared keys — there is no undeclared Stat.
const (
	statTouched = StatICFHashed
	statBytes   = StatICFBytes
)

// fakeCtx builds a context with n synthetic simple functions.
func fakeCtx(n int) *BinaryContext {
	ctx := &BinaryContext{ByName: map[string]*BinaryFunction{}, Stats: map[string]int64{}}
	for i := 0; i < n; i++ {
		fn := &BinaryFunction{
			Name:   fmt.Sprintf("f%03d", i),
			Addr:   uint64(0x1000 + 16*i),
			Size:   16,
			Simple: true,
		}
		ctx.Funcs = append(ctx.Funcs, fn)
		ctx.ByName[fn.Name] = fn
	}
	return ctx
}

// touchPass marks each visited function and counts per-function stats.
type touchPass struct{}

func (touchPass) Name() string { return "touch" }

func (touchPass) RunOnFunction(fc *FuncCtx, fn *BinaryFunction) error {
	fn.ExecCount++ // worker-private mutation of the handed function
	fc.CountStat(statTouched, 1)
	fc.CountStat(statBytes, int64(fn.Size))
	return nil
}

func TestPassManagerShardsMergeIdentically(t *testing.T) {
	// The merged shards must write what the same counts, made one by one
	// through CountStat, write.
	serial := fakeCtx(37)
	for _, fn := range serial.Funcs {
		serial.CountStat(statTouched, 1)
		serial.CountStat(statBytes, int64(fn.Size))
	}
	for _, jobs := range []int{1, 3, 8, 64} {
		ctx := fakeCtx(37)
		pm := NewPassManager(jobs)
		if err := pm.Run(context.Background(), ctx, []Pass{ForEachFunction(touchPass{})}); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !maps.Equal(ctx.Stats, serial.Stats) {
			t.Errorf("jobs=%d: merged stats %v, serial CountStat calls give %v", jobs, ctx.Stats, serial.Stats)
		}
		if got := ctx.Stats[statTouched.String()]; got != 37 {
			t.Errorf("jobs=%d: touched=%d, want 37", jobs, got)
		}
		if got := ctx.Stats[statBytes.String()]; got != 37*16 {
			t.Errorf("jobs=%d: bytes=%d, want %d", jobs, got, 37*16)
		}
		for _, fn := range ctx.Funcs {
			if fn.ExecCount != 1 {
				t.Errorf("jobs=%d: %s visited %d times", jobs, fn.Name, fn.ExecCount)
			}
		}
		if len(ctx.Timings) != 1 || ctx.Timings[0].Name != "touch" || ctx.Timings[0].Group != "pass" || ctx.Timings[0].Funcs != 37 {
			t.Errorf("jobs=%d: bad timing record %+v", jobs, ctx.Timings)
		}
		if d := ctx.Timings[0].StatDelta[statTouched.String()]; d != 37 {
			t.Errorf("jobs=%d: stat delta touched=%d, want 37", jobs, d)
		}
	}
}

// TestFuncCtxKeptForSession: a context keeps its function-pass workers,
// and the buffers they carry, for the session. Every pass of two
// pipeline runs on the same context is handed FuncCtx values from the
// one set the first run made, and each worker's stats shard is merged
// once: cleared at every pass barrier, so a later pass does not merge an
// earlier pass's counts again.
func TestFuncCtxKeptForSession(t *testing.T) {
	ctx := fakeCtx(37)
	var mu sync.Mutex
	seen := map[*FuncCtx]bool{}
	record := passFunc{name: "record", fn: func(fc *FuncCtx, fn *BinaryFunction) error {
		mu.Lock()
		seen[fc] = true
		mu.Unlock()
		fc.CountStat(statTouched, 1)
		return nil
	}}
	var first []*FuncCtx
	for run := 1; run <= 2; run++ {
		if err := NewPassManager(2).Run(context.Background(), ctx, []Pass{ForEachFunction(record), ForEachFunction(record)}); err != nil {
			t.Fatal(err)
		}
		if run == 1 {
			first = slices.Clone(ctx.passWorkers)
		}
	}
	if len(first) != 2 || !slices.Equal(ctx.passWorkers, first) {
		t.Errorf("workers after the first run %p, after the second %p: want the same two", first, ctx.passWorkers)
	}
	for fc := range seen {
		if !slices.Contains(first, fc) {
			t.Errorf("a pass was handed a FuncCtx (%p) the context does not keep", fc)
		}
	}
	if got := ctx.Stats[statTouched.String()]; got != 4*37 {
		t.Errorf("touched = %d after four passes over 37 functions, want %d", got, 4*37)
	}
}

// failPass fails on one specific function.
type failPass struct{ victim string }

func (failPass) Name() string { return "fail" }

var errBoom = errors.New("boom")

func (p failPass) RunOnFunction(fc *FuncCtx, fn *BinaryFunction) error {
	if fn.Name == p.victim {
		return errBoom
	}
	return nil
}

func TestPassManagerErrorPropagation(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		ctx := fakeCtx(16)
		err := NewPassManager(jobs).Run(context.Background(), ctx, []Pass{ForEachFunction(failPass{victim: "f007"})})
		if !errors.Is(err, errBoom) {
			t.Fatalf("jobs=%d: error %v does not wrap the pass failure", jobs, err)
		}
		for _, part := range []string{"pass fail", "f007"} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("jobs=%d: error %q missing %q", jobs, err, part)
			}
		}
	}
}

// TestCountStatDropsZeroKeys: ctx.Stats has a key iff its count is
// non-zero, so a counter brought back to zero loses its key.
func TestCountStatDropsZeroKeys(t *testing.T) {
	ctx := fakeCtx(0)
	ctx.CountStat(statTouched, 3)
	ctx.CountStat(statBytes, 0)
	if want := map[string]int64{statTouched.String(): 3}; !maps.Equal(ctx.Stats, want) {
		t.Fatalf("stats = %v, want %v", ctx.Stats, want)
	}
	var shard statShard
	shard[statTouched] = -3
	ctx.mergeStats(&shard)
	if len(ctx.Stats) != 0 {
		t.Fatalf("a counter merged back to zero kept its key: %v", ctx.Stats)
	}
}

// passFunc adapts a closure to FunctionPass for tests.
type passFunc struct {
	name string
	fn   func(fc *FuncCtx, f *BinaryFunction) error
}

func (p passFunc) Name() string { return p.name }

func (p passFunc) RunOnFunction(fc *FuncCtx, f *BinaryFunction) error { return p.fn(fc, f) }

func TestWriteTimingsReport(t *testing.T) {
	ctx := fakeCtx(5)
	pm := NewPassManager(4)
	if err := pm.Run(context.Background(), ctx, []Pass{ForEachFunction(touchPass{})}); err != nil {
		t.Fatal(err)
	}
	// A stage outside the pass manager records itself the same way, stat
	// delta included.
	ph := ctx.begin("load", "profile:infer")
	ctx.CountStat(StatProfileInferredFuncs, 3)
	ph.end(3, 1)
	var sb strings.Builder
	WriteTimings(&sb, ctx.Timings)
	out := sb.String()
	for _, want := range []string{"Pass execution timing report", "touch", "funcs", "icf-hashed=+5", "profile-inferred-funcs=+3"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// Stat deltas print in key order, whatever the map's iteration order:
	// every rendering of one row is the same line.
	sorted := []PassTiming{{Name: "reorder-bbs", Group: "pass", Wall: time.Millisecond,
		StatDelta: map[string]int64{"split-functions": 8, "reorder-bbs-funcs": 64, "split-cold-blocks": 2, "uce-blocks": -3, "frame-opts-spills": 32}}}
	const deltas = "  frame-opts-spills=+32 reorder-bbs-funcs=+64 split-cold-blocks=+2 split-functions=+8 uce-blocks=-3\n"
	for i := 0; i < 20; i++ {
		sb.Reset()
		WriteTimings(&sb, sorted)
		if !strings.Contains(sb.String(), deltas) {
			t.Fatalf("render %d: stat deltas not in key order, want %q:\n%s", i, deltas, sb.String())
		}
	}
}

// barrierFunc adapts a closure to a whole-binary Pass for tests.
type barrierFunc struct {
	name string
	fn   func(ctx *BinaryContext) error
}

func (p barrierFunc) Name() string                 { return p.name }
func (p barrierFunc) Run(ctx *BinaryContext) error { return p.fn(ctx) }

// TestPassManagerCancellationMidPipeline cancels the context from a
// barrier in the middle of the pipeline: the manager must stop at the
// next pass boundary, report the context error unwrapped, and never run
// the downstream passes.
func TestPassManagerCancellationMidPipeline(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		cx, cancel := context.WithCancel(context.Background())
		ctx := fakeCtx(16)
		ranAfter := false
		pipeline := []Pass{
			ForEachFunction(touchPass{}),
			barrierFunc{name: "cancel", fn: func(*BinaryContext) error {
				cancel()
				return nil
			}},
			ForEachFunction(passFunc{name: "after", fn: func(*FuncCtx, *BinaryFunction) error {
				ranAfter = true
				return nil
			}}),
		}
		err := NewPassManager(jobs).Run(cx, ctx, pipeline)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("jobs=%d: got %v, want context.Canceled", jobs, err)
		}
		if ranAfter {
			t.Fatalf("jobs=%d: pass after cancellation still ran", jobs)
		}
		if got := ctx.Stats[statTouched.String()]; got != 16 {
			t.Errorf("jobs=%d: pre-cancel pass incomplete: touched=%d", jobs, got)
		}
	}
}

// TestPassManagerCancelledFunctionPass cancels while a parallel function
// pass is in flight: workers stop claiming items and Run returns the
// bare context error (not wrapped in a function name).
func TestPassManagerCancelledFunctionPass(t *testing.T) {
	cx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := fakeCtx(512)
	// Items after f005 wait for the cancel, so the other workers cannot
	// claim every item while f005's worker is descheduled. The pool
	// claims in order, so whoever holds a later item, f005 is claimed.
	cancelled := make(chan struct{})
	trigger := passFunc{name: "trigger", fn: func(fc *FuncCtx, f *BinaryFunction) error {
		switch {
		case f.Name == "f005":
			cancel()
			close(cancelled)
		case f.Name > "f005":
			<-cancelled
		}
		fc.CountStat(statTouched, 1)
		return nil
	}}
	err := NewPassManager(4).Run(cx, ctx, []Pass{ForEachFunction(trigger)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if strings.Contains(err.Error(), "f0") {
		t.Errorf("cancellation error blamed a function: %v", err)
	}
	if got := ctx.Stats[statTouched.String()]; got == 0 || got >= 512 {
		t.Errorf("visited=%d, want partial progress (0 < n < 512)", got)
	}
}

func TestFuncContainingBinarySearch(t *testing.T) {
	ctx := fakeCtx(8) // functions at 0x1000+16i, size 16 (contiguous)
	// Punch a gap: shrink f003 so 0x1038..0x103f is uncovered.
	ctx.Funcs[3].Size = 8
	cases := []struct {
		addr uint64
		want string
	}{
		{0x0fff, ""},
		{0x1000, "f000"},
		{0x100f, "f000"},
		{0x1010, "f001"},
		{0x1037, "f003"},
		{0x1038, ""}, // inside the gap
		{0x1070, "f007"},
		{0x107f, "f007"},
		{0x1080, ""}, // past the end
	}
	for _, c := range cases {
		got := ""
		if fn := ctx.FuncContaining(c.addr); fn != nil {
			got = fn.Name
		}
		if got != c.want {
			t.Errorf("FuncContaining(%#x) = %q, want %q", c.addr, got, c.want)
		}
	}
}
