// Package par provides the one bounded fan-out primitive shared by every
// parallel phase of the toolchain: the loader's per-function
// disassembly+CFG stage, the PassManager's function passes, the emitter's
// per-function code generation, and profile-shard parsing. It lives
// outside internal/core so leaf packages (profile tooling, the bolt API)
// can use the same pool without importing the engine.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gobolt/internal/obsv"
)

// Jobs resolves a -jobs setting against GOMAXPROCS and the amount of work
// available: jobs <= 0 selects GOMAXPROCS (the production default) and
// the pool never exceeds n workers.
func Jobs(jobs, n int) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	if jobs < 1 {
		jobs = 1
	}
	return jobs
}

// For distributes work items [0,n) over jobs workers. Work is handed out
// by an atomic cursor; work receives the worker index (so callers can
// give each worker a private shard) and the item index. On failure the
// pool drains and the error attributed to the lowest item index is
// returned along with that index, keeping error messages stable across
// schedules. jobs <= 1 runs the same worker body on the caller's
// goroutine.
//
// Cancelling cx stops the pool promptly: no new item is claimed once the
// context is done (items already claimed run to completion), and For
// returns (-1, cx.Err()). Item errors take precedence over cancellation
// in the returned error, so a real failure is never masked by a
// simultaneous cancel. A nil cx behaves like context.Background().
func For(cx context.Context, n, jobs int, work func(worker, item int) error) (int, error) {
	return ForTraced(cx, nil, "", nil, n, jobs, work)
}

// ForTraced is For with span recording: when tr is non-nil each worker
// records one batch span named after the phase covering its whole
// participation in the pool, plus one task span per completed item
// (named by taskName when provided, else by the phase). Every worker,
// including the lone one at jobs <= 1, runs pool.worker. A nil tr makes
// ForTraced identical to For, and then the jobs <= 1 path allocates
// nothing: its pool and claims live on the caller's stack.
func ForTraced(cx context.Context, tr *obsv.Tracer, phase string, taskName func(item int) string, n, jobs int, work func(worker, item int) error) (int, error) {
	if cx == nil {
		cx = context.Background()
	}
	jobs = max(jobs, 1)
	tr.EnsureWorkers(jobs)
	p := pool{cx: cx, tr: tr, phase: phase, taskName: taskName, n: n, work: work}
	var errIdx int
	var err error
	if jobs == 1 {
		var c claims
		errIdx, err = p.worker(&c, 0)
	} else {
		errIdx, err = p.fanOut(jobs)
	}
	if err == nil {
		err = cx.Err()
	}
	return errIdx, err
}

// pool is what every worker of one ForTraced call reads.
type pool struct {
	cx       context.Context
	tr       *obsv.Tracer
	phase    string
	taskName func(item int) string
	n        int
	work     func(worker, item int) error
}

// claims is the state the workers of one call share: the next item to
// hand out, and whether any item has failed.
type claims struct {
	next   atomic.Int64
	failed atomic.Bool
}

// fanOut runs the worker body on jobs goroutines and returns the
// lowest-index error any of them met, (-1, nil) when none did. Each
// worker stops at its first error, and the cursor hands out indices in
// order, so every item below the lowest failing one has run: the result
// is the failure a single worker would stop at. The value receiver is
// what keeps ForTraced's pool on its stack: only this copy escapes to
// the goroutines.
func (p pool) fanOut(jobs int) (int, error) {
	var c claims
	type result struct {
		idx int
		err error
	}
	res := make([]result, jobs)
	var wg sync.WaitGroup
	for w := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[w].idx, res[w].err = p.worker(&c, w)
		}()
	}
	wg.Wait()
	first := result{idx: -1}
	for _, r := range res {
		if r.err != nil && (first.err == nil || r.idx < first.idx) {
			first = r
		}
	}
	return first.idx, first.err
}

// worker is the pool's one worker body: it claims items until they run
// out, an item fails or cx is done, and returns the item that failed with
// its error, (-1, nil) otherwise. Drain is checked BEFORE claiming, so a
// claimed item always runs.
//
// Traced, task timestamps are chained: each span starts where the
// previous one on the same worker ended, so an item costs one clock read,
// not two. The sliver of claim overhead between items is attributed to
// the task, which is negligible next to any real work item. A failing
// item ends the worker's batch without a task span.
func (p *pool) worker(c *claims, w int) (int, error) {
	var t0, last time.Time
	if p.tr != nil {
		t0 = time.Now()
		last = t0
	}
	errIdx, items := -1, 0
	var err error
	for !c.failed.Load() && p.cx.Err() == nil {
		i := int(c.next.Add(1)) - 1
		if i >= p.n {
			break
		}
		if err = p.work(w, i); err != nil {
			c.failed.Store(true)
			errIdx = i
			break
		}
		if p.tr != nil {
			now := time.Now()
			name := p.phase
			if p.taskName != nil {
				name = p.taskName(i)
			}
			p.tr.Task(w, p.phase, name, last, now.Sub(last))
			last = now
			items++
		}
	}
	if p.tr != nil {
		p.tr.Batch(w, p.phase, t0, time.Since(t0), items)
	}
	return errIdx, err
}
