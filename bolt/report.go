package bolt

import (
	"fmt"
	"io"
	"strings"

	"gobolt/internal/bincheck"
	"gobolt/internal/core"
	"gobolt/internal/obsv"
)

// Report is the structured result of Session.Optimize — everything the
// old drivers used to printf, as data. CLI adapters render it; library
// callers assert on it.
type Report struct {
	// Input is the path (or "<memory>"/"<reader>") the session opened.
	Input string

	// InputSHA256/InputSize fingerprint the exact input image the run
	// describes (sha256 of the serialized ELF, hex-encoded).
	InputSHA256 string
	InputSize   int

	// Options is the resolved option set the session ran with (defaults
	// plus open-time Option values).
	Options core.Options

	// Function accounting from the rewrite: moved into the new layout,
	// skipped as non-simple, folded by ICF, split hot/cold. SimpleFuncs
	// is the final rewritable-function count.
	MovedFuncs, SkippedFuncs, FoldedFuncs, SplitFuncs, SimpleFuncs int

	// Section sizes of the new layout versus the original .text.
	HotTextSize, ColdTextSize, OrigTextSize uint64

	// Stats is a snapshot of every pipeline counter (profile matching,
	// per-pass work) taken when Optimize finished.
	Stats map[string]int64

	// DynoBefore/DynoAfter hold the paper's dynamic instruction
	// statistics around the pass pipeline; collected only when the
	// session ran WithDynoStats (HasDynoStats).
	HasDynoStats          bool
	DynoBefore, DynoAfter core.DynoStats

	// Timings is the per-phase wall-clock instrumentation in execution
	// order; each row's Group says which stage it belongs to — "load"
	// (discovery, disassembly+CFG, profile), "pass" (one row per
	// optimization pass) or "emit" (code generation, layout, patching,
	// metadata).
	Timings []core.PassTiming

	// Profile provenance: source description and record counts of the
	// profile that drove the run (zero values when none was loaded).
	ProfileSource     string
	ProfileBranches   int
	ProfileSamples    int
	ProfileTotalCount uint64

	// FlowAccBefore/FlowAccAfter are the count-weighted flow-equation
	// consistency of the profiled CFGs before and after the
	// profile:infer stage (1.0 = every block's count equals its
	// out-flow); InferredFuncs counts the functions rebalanced by the
	// minimum-cost-flow solver (0 when inference did not run).
	FlowAccBefore, FlowAccAfter float64
	InferredFuncs               int

	// Metrics is the typed registry snapshot behind Stats: the same
	// counters plus gauges and the per-function quality histograms
	// (flow accuracy, stale-match quality).
	Metrics *obsv.Snapshot

	// Verify holds the independent static verification of the output
	// binary, filled by Session.VerifyOutput (nil until then). The
	// verifier re-reads the serialized output from scratch — see
	// internal/bincheck.
	Verify *bincheck.Result

	// Occupancy holds the derived per-phase worker-pool statistics
	// (utilization, task-duration quantiles, stragglers). Present only
	// when the session ran WithTracer, and derived lazily — read it
	// through OccupancyStats; deriving statistics from tens of
	// thousands of spans is report-rendering work that must not count
	// against the pipeline's wall clock.
	Occupancy []obsv.PhaseStats

	// trace is the session's tracer, kept for the lazy derivation.
	trace *obsv.Tracer
}

// OccupancyStats derives (once) and returns the per-phase worker-pool
// statistics from the session's span trace; nil for untraced runs.
func (r *Report) OccupancyStats() []obsv.PhaseStats {
	if r.Occupancy == nil && r.trace != nil {
		r.Occupancy = obsv.Occupancy(r.trace.Spans())
	}
	return r.Occupancy
}

// WriteTimings renders the -time-passes report: per-phase wall time,
// pipeline share, scheduling mode, and stat deltas for the whole
// pipeline in one table, followed by the pool-occupancy table when the
// session traced (WithTracer).
func (r *Report) WriteTimings(w io.Writer) {
	core.WriteTimings(w, r.Timings)
	obsv.WriteOccupancy(w, r.OccupancyStats())
}

// WriteDynoStats renders the before/after dyno-stats comparison (paper
// Table 2). No-op unless the session ran WithDynoStats.
func (r *Report) WriteDynoStats(w io.Writer) {
	if !r.HasDynoStats {
		return
	}
	core.PrintComparison(w, r.Input, r.DynoBefore, r.DynoAfter)
}

// Summary renders the human-readable two-line result the gobolt CLI
// prints after a successful run.
func (r *Report) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "moved %d functions (%d skipped non-simple, %d folded, %d split)\n",
		r.MovedFuncs, r.SkippedFuncs, r.FoldedFuncs, r.SplitFuncs)
	fmt.Fprintf(&sb, "hot text %d bytes, cold text %d bytes (original %d)",
		r.HotTextSize, r.ColdTextSize, r.OrigTextSize)
	return sb.String()
}
