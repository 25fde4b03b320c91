package par

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync/atomic"
	"testing"

	"gobolt/internal/obsv"
)

func TestForRunsEveryItem(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		var hits atomic.Int64
		idx, err := For(context.Background(), 100, jobs, func(_, i int) error {
			hits.Add(1)
			return nil
		})
		if err != nil || idx != -1 {
			t.Fatalf("jobs=%d: unexpected (%d, %v)", jobs, idx, err)
		}
		if hits.Load() != 100 {
			t.Fatalf("jobs=%d: ran %d of 100 items", jobs, hits.Load())
		}
	}
}

func TestForLowestErrorWins(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		idx, err := For(context.Background(), 50, jobs, func(_, i int) error {
			if i == 7 || i == 31 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("jobs=%d: expected error", jobs)
		}
		// Item 7 always runs before the drain completes, so the reported
		// index can never exceed it.
		if idx != 7 {
			t.Fatalf("jobs=%d: error attributed to item %d, want 7 (err: %v)", jobs, idx, err)
		}
	}
}

// TestForCancellationStopsPromptly cancels the context from inside a work
// item and checks that the pool drains without claiming the remaining
// items, returning the context's error with index -1.
func TestForCancellationStopsPromptly(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		cx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		const n, cancelAt = 10_000, 5
		idx, err := For(cx, n, jobs, func(_, i int) error {
			ran.Add(1)
			if i == cancelAt {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) || idx != -1 {
			t.Fatalf("jobs=%d: got (%d, %v), want (-1, context.Canceled)", jobs, idx, err)
		}
		// At most the items claimed before the cancel landed may run:
		// with the atomic cursor that is a handful per worker, never the
		// full range.
		if got := ran.Load(); got >= n/2 {
			t.Fatalf("jobs=%d: %d of %d items ran after cancellation", jobs, got, n)
		}
	}
}

// TestForCancelledBeforeStart: a pre-cancelled context runs no work.
func TestForCancelledBeforeStart(t *testing.T) {
	cx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, jobs := range []int{1, 4} {
		var ran atomic.Int64
		idx, err := For(cx, 100, jobs, func(_, i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) || idx != -1 {
			t.Fatalf("jobs=%d: got (%d, %v), want (-1, context.Canceled)", jobs, idx, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("jobs=%d: %d items ran under a cancelled context", jobs, ran.Load())
		}
	}
}

// TestForErrorBeatsCancel: when a work item fails and the context is then
// cancelled, the item error is reported, not the cancellation.
func TestForErrorBeatsCancel(t *testing.T) {
	boom := errors.New("boom")
	for _, jobs := range []int{1, 4} {
		cx, cancel := context.WithCancel(context.Background())
		idx, err := For(cx, 20, jobs, func(_, i int) error {
			if i == 3 {
				cancel()
				return boom
			}
			return nil
		})
		cancel()
		if !errors.Is(err, boom) || idx != 3 {
			t.Fatalf("jobs=%d: got (%d, %v), want (3, boom)", jobs, idx, err)
		}
	}
}

// TestForTracedSpans: a traced pool records one task span per item, named
// by taskName, and one batch span per worker, whose item counts add up to
// n; the task names are the same multiset at any worker count.
func TestForTracedSpans(t *testing.T) {
	const n = 100
	name := func(i int) string { return fmt.Sprintf("item%d", i%7) }
	var names [2]map[string]int
	for k, jobs := range []int{1, 4} {
		tr := obsv.New()
		if _, err := ForTraced(context.Background(), tr, "ph", name, n, jobs, func(_, i int) error { return nil }); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		names[k] = map[string]int{}
		batches, items := map[int]int{}, 0
		for _, sp := range tr.Spans() {
			if sp.Phase != "ph" {
				t.Errorf("jobs=%d: span of phase %q", jobs, sp.Phase)
			}
			switch sp.Kind {
			case obsv.KindTask:
				names[k][sp.Name]++
			case obsv.KindBatch:
				batches[sp.Worker]++
				items += sp.N
			}
		}
		if got := len(tr.Spans()) - len(batches); got != n {
			t.Errorf("jobs=%d: %d task spans, want %d", jobs, got, n)
		}
		if len(batches) != jobs || items != n {
			t.Errorf("jobs=%d: batch spans per worker %v covering %d items, want one for each of %d workers covering %d", jobs, batches, items, jobs, n)
		}
		for w, c := range batches {
			if c != 1 {
				t.Errorf("jobs=%d: worker %d recorded %d batch spans", jobs, w, c)
			}
		}
	}
	if !maps.Equal(names[0], names[1]) {
		t.Errorf("task names differ between jobs 1 and 4:\n  %v\n  %v", names[0], names[1])
	}
}

// TestForSerialAllocs: the untraced jobs-1 pool runs on the caller's
// stack, so it allocates nothing per call.
func TestForSerialAllocs(t *testing.T) {
	sum := 0
	work := func(_, i int) error { sum += i; return nil }
	cx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() { For(cx, 1000, 1, work) }); allocs != 0 {
		t.Errorf("untraced jobs=1 For allocates %v times per call, want 0", allocs)
	}
}

func TestJobs(t *testing.T) {
	if got := Jobs(4, 2); got != 2 {
		t.Errorf("Jobs(4,2) = %d, want 2 (capped by work)", got)
	}
	if got := Jobs(3, 100); got != 3 {
		t.Errorf("Jobs(3,100) = %d, want 3", got)
	}
	if got := Jobs(0, 0); got != 1 {
		t.Errorf("Jobs(0,0) = %d, want 1", got)
	}
}

// BenchmarkForTraced measures what recording costs per task span: one
// worker sweeps 200k trivial items untraced and traced, and the
// difference between the two ns/task figures is the tracer's on-cost
// (its off-cost is the untraced figure, and is inside the repository
// benchmark's optimize_cost_rel). The loop's working set is tiny, so the
// figure is stable where a percentage of some end-to-end wall is not.
func BenchmarkForTraced(b *testing.B) {
	const items = 200000
	name := func(int) string { return "task" }
	work := func(worker, item int) error { return nil }
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("traced=%v", traced), func(b *testing.B) {
			for b.Loop() {
				var tr *obsv.Tracer
				if traced {
					tr = obsv.New()
				}
				if _, err := ForTraced(context.Background(), tr, "bench", name, items, 1, work); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/task")
		})
	}
}
