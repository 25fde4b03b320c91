package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"gobolt/internal/dataflow"
	"gobolt/internal/layout"
	"gobolt/internal/par"
	"gobolt/internal/scratch"
)

// FunctionPass is a transformation confined to a single function: it may
// mutate fn's CFG, instructions, and interned CFI states freely, but must
// treat everything else reachable through the context (other functions,
// the input file, profile maps) as read-only. Passes with that contract
// are embarrassingly parallel — production llvm-bolt runs them on a
// per-function thread pool, and so does the PassManager here.
type FunctionPass interface {
	Name() string
	RunOnFunction(fc *FuncCtx, fn *BinaryFunction) error
}

// FuncCtx is the per-worker view handed to a FunctionPass. It embeds the
// shared BinaryContext for read access (options, file sections, symbol
// maps) and shadows CountStat with a private shard, so concurrent workers
// never write ctx.Stats; mergeStats folds the shards in at the pass
// barrier. A context keeps its workers' FuncCtx for the session, so the
// buffers below serve every function pass: a pass keeps nothing that
// points into them past RunOnFunction.
type FuncCtx struct {
	*BinaryContext
	stats statShard
	// Scratch is a byte buffer: a pass reslices it to [:0], appends, and
	// stores it back.
	Scratch []byte
	// Layout holds block layout's graph and buffers (layout.Scratch).
	Layout layout.Scratch
	// Dataflow holds a liveness problem and its solve (dataflow.Scratch).
	Dataflow dataflow.Scratch
	// ints and blocks back Ints and Blocks.
	ints   []int32
	blocks []*BasicBlock
}

// Ints returns n zeroed int32s from a buffer the worker keeps across the
// functions it visits, for tables keyed by BasicBlock.Index. The slice is
// the pass's until RunOnFunction returns or it calls Ints again.
func (fc *FuncCtx) Ints(n int) []int32 {
	fc.ints = scratch.Zeroed(fc.ints, n)
	return fc.ints
}

// Blocks returns n nil block slots from a buffer the worker keeps, for a
// pass that rewrites fn.Blocks in place and needs the old order while it
// does. The slice is the pass's until RunOnFunction returns or it calls
// Blocks again.
func (fc *FuncCtx) Blocks(n int) []*BasicBlock {
	fc.blocks = scratch.Zeroed(fc.blocks, n)
	return fc.blocks
}

// CountStat bumps a statistic in the worker-private shard.
func (fc *FuncCtx) CountStat(s Stat, delta int64) { fc.stats[s] += delta }

// funcPassAdapter lifts a FunctionPass into the Pass pipeline: the
// PassManager recognizes the adapter and fans the function list out to
// its worker pool.
type funcPassAdapter struct{ fp FunctionPass }

// Name implements Pass.
func (a funcPassAdapter) Name() string { return a.fp.Name() }

// Run implements Pass for a caller holding the bare Pass: the manager's
// schedule on one worker, not cancellable.
func (a funcPassAdapter) Run(ctx *BinaryContext) error {
	return NewPassManager(1).Run(nil, ctx, []Pass{a})
}

// ForEachFunction wraps a FunctionPass for use in a []Pass pipeline.
func ForEachFunction(fp FunctionPass) Pass { return funcPassAdapter{fp} }

// PassTiming records one phase execution for the -time-passes report; the
// JSON tags make it the run report's `phases` row as it stands.
type PassTiming struct {
	Name  string        `json:"name"`
	Group string        `json:"group"` // pipeline stage: "load", "pass" or "emit"
	Wall  time.Duration `json:"wall_ns"`
	Funcs int           `json:"funcs,omitempty"` // functions visited (0 for whole-binary passes)
	Jobs  int           `json:"jobs,omitempty"`  // workers actually used; more than 1 = ran on the pool
	// StatDelta holds the counters this phase changed in ctx.Stats, under
	// the same rule: a key is present iff its delta is non-zero. Rendered
	// by WriteTimings, not part of the run report.
	StatDelta map[string]int64 `json:"-"`
}

// phase is one open row of ctx.Timings: begin notes the clock and the
// counters, end turns them into the row. It is the only way a stage
// records itself, so every row carries its own wall, trace span and stat
// delta. A stage that fails before end leaves no row.
type phase struct {
	ctx         *BinaryContext
	group, name string
	start       time.Time
	before      statShard
}

func (ctx *BinaryContext) begin(group, name string) phase {
	return phase{ctx: ctx, group: group, name: name, start: time.Now(), before: ctx.statCounts()}
}

// end closes the phase over funcs functions on jobs workers.
func (p phase) end(funcs, jobs int) {
	wall := time.Since(p.start)
	p.ctx.Opts.Trace.Phase(p.name, p.start, wall, jobs)
	after := p.ctx.statCounts()
	p.ctx.Timings = append(p.ctx.Timings, PassTiming{
		Name: p.name, Group: p.group, Wall: wall,
		Funcs: funcs, Jobs: jobs,
		StatDelta: statDelta(&p.before, &after),
	})
}

// PassManager schedules an optimization pipeline over a BinaryContext.
// Function passes (built with ForEachFunction) are fanned out over a
// bounded pool of Jobs workers; whole-binary passes run in place as
// sequential barriers, so every pass still observes the pipeline order of
// Table 1. Output is bit-identical for any Jobs value: workers only
// mutate the function they were handed, stats merge commutatively, and
// emission order is fixed by the context's address-sorted function list
// (plus FuncOrder), never by completion order.
type PassManager struct {
	// Jobs bounds the worker pool for function passes (1 = serial).
	Jobs int
}

// NewPassManager returns a manager with the given parallelism; jobs <= 0
// selects GOMAXPROCS, the production default.
func NewPassManager(jobs int) *PassManager {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &PassManager{Jobs: jobs}
}

// Run executes the pipeline in order, appending one "pass" row per
// pass to ctx.Timings. The error (if any) is wrapped with the failing
// pass name. Cancelling cx stops the pipeline at the next pass boundary —
// and, for function passes in flight, at the next work-item claim —
// returning cx.Err() unwrapped.
func (pm *PassManager) Run(cx context.Context, ctx *BinaryContext, passes []Pass) error {
	if cx == nil {
		cx = context.Background()
	}
	for _, p := range passes {
		if err := cx.Err(); err != nil {
			return err
		}
		ph := ctx.begin("pass", p.Name())
		funcs, jobs := 0, 1
		var err error
		if a, ok := p.(funcPassAdapter); ok {
			funcs, jobs, err = runFunctionPass(cx, ctx, a.fp, pm.Jobs)
		} else {
			err = p.Run(ctx)
		}
		ph.end(funcs, jobs)
		if err != nil {
			if cx.Err() != nil && err == cx.Err() {
				// Cancellation is not the pass's failure; surface it bare
				// so callers can match it with errors.Is.
				return err
			}
			return fmt.Errorf("pass %s: %w", p.Name(), err)
		}
	}
	return nil
}

// runFunctionPass fans one FunctionPass out over at most jobs workers
// via the traced fan-out; each worker owns a private stats shard, merged
// and cleared after the join. jobs <= 1 runs the same schedule inline. On
// error the failure attributed to the lowest function index is reported,
// keeping messages stable across schedules.
func runFunctionPass(cx context.Context, ctx *BinaryContext, fp FunctionPass, jobs int) (int, int, error) {
	funcs := ctx.SimpleFuncs()
	jobs = par.Jobs(jobs, len(funcs))
	for len(ctx.passWorkers) < jobs {
		ctx.passWorkers = append(ctx.passWorkers, &FuncCtx{BinaryContext: ctx})
	}
	workers := ctx.passWorkers[:jobs]
	errIdx, err := par.ForTraced(cx, ctx.Opts.Trace, fp.Name(),
		func(i int) string { return funcs[i].Name },
		len(funcs), jobs, func(w, i int) error {
			return fp.RunOnFunction(workers[w], funcs[i])
		})
	for _, fc := range workers {
		ctx.mergeStats(&fc.stats)
		fc.stats = statShard{}
	}
	if err != nil {
		if errIdx < 0 {
			// Cancellation: no function failed; return the context error.
			return len(funcs), jobs, err
		}
		return len(funcs), jobs, fmt.Errorf("%s: %w", funcs[errIdx].Name, err)
	}
	return len(funcs), jobs, nil
}

// statDelta returns after-before, by name, for every changed counter
// (the ctx.Stats rule: a key is present iff its value is non-zero).
func statDelta(before, after *statShard) map[string]int64 {
	var out map[string]int64
	for s, v := range after {
		if d := v - before[s]; d != 0 {
			if out == nil {
				out = map[string]int64{}
			}
			out[Stat(s).String()] = d
		}
	}
	return out
}

// WriteTimings renders the -time-passes report: per-pass wall time, share
// of the pipeline, scheduling mode, function count, and stat deltas.
func WriteTimings(w io.Writer, timings []PassTiming) {
	var total time.Duration
	for _, t := range timings {
		total += t.Wall
	}
	fmt.Fprintf(w, "===-- Pass execution timing report (pipeline total %v) --===\n",
		total.Round(time.Microsecond))
	for _, t := range timings {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(t.Wall) / float64(total)
		}
		mode := "barrier"
		switch {
		case t.Jobs > 1:
			mode = fmt.Sprintf("%d jobs", t.Jobs)
		case t.Funcs > 0:
			mode = "serial"
		}
		fmt.Fprintf(w, "  %-20s %12v %5.1f%%  %-8s", t.Name,
			t.Wall.Round(time.Microsecond), pct, mode)
		if t.Funcs > 0 {
			fmt.Fprintf(w, " %5d funcs", t.Funcs)
		}
		if len(t.StatDelta) > 0 {
			keys := make([]string, 0, len(t.StatDelta))
			for k := range t.StatDelta {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			sep := "  "
			for _, k := range keys {
				fmt.Fprintf(w, "%s%s=%+d", sep, k, t.StatDelta[k])
				sep = " "
			}
		}
		fmt.Fprintln(w)
	}
}
