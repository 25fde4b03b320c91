package bolt

import (
	"gobolt/internal/core"
	"gobolt/internal/obsv"
)

// Option configures a Session at open time. The base configuration is
// always core.DefaultOptions() — the paper's evaluation setup — so a
// zero-option session runs the full pipeline; Options only deviate from
// it.
type Option func(*core.Options)

// WithOptions replaces the whole option set — the escape hatch for CLI
// adapters that materialize a core.Options from flags. o is taken as
// given: start from core.DefaultOptions(), as the zero core.Options runs
// no pass.
func WithOptions(o core.Options) Option {
	return func(dst *core.Options) { *dst = o }
}

// WithJobs bounds the worker pools of every parallel phase — loader
// disassembly+CFG, function passes, code emission (0 = GOMAXPROCS,
// 1 = serial). Output is bit-identical for every value.
func WithJobs(n int) Option {
	return func(o *core.Options) { o.Jobs = n }
}

// WithDynoStats collects the before/after dynamic instruction statistics
// into Report.Dyno.
func WithDynoStats(on bool) Option {
	return func(o *core.Options) { o.DynoStats = on }
}

// WithStaleMatching controls CFG-shape recovery of stale profile records
// (arXiv:2401.17168). Default on.
func WithStaleMatching(on bool) Option {
	return func(o *core.Options) { o.StaleMatching = on }
}

// WithInferFlow selects the minimum-cost-flow profile-inference mode
// (the production replacement for the paper's §5.1 "non-ideal
// algorithm"): core.InferAuto (default) solves MCF for non-LBR sample
// profiles, core.InferAlways also repairs LBR/stale/BAT-translated
// profiles after classic flow repair, core.InferNever restores the
// proportional estimator.
func WithInferFlow(mode core.InferMode) Option {
	return func(o *core.Options) { o.InferFlow = mode }
}

// WithTracer attaches an obsv span tracer to the session: every
// pipeline phase and worker-pool task records a span into tr, the
// per-phase occupancy stats land in Report.Occupancy, and
// tr.WriteChromeTrace exports the Perfetto-loadable timeline
// (gobolt -trace-out). nil (the default) disables tracing at zero
// hot-path cost.
func WithTracer(tr *obsv.Tracer) Option {
	return func(o *core.Options) { o.Trace = tr }
}
