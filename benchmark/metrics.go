package main

// metricDef names one reported number. The two tables below are the
// benchmark's single definition of its metrics: BENCHMARK.json repeats
// them for the driver and bench_test.go holds the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the optimizer sees: what a run costs and
// how good its output is. Bound is the share of the parent's median by
// which the metric may worsen before a change counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"optimize_cost_rel", "x_calib", lower, 0.15},
	{"optimize_allocs_op", "allocs", lower, 0.01},
	{"optimize_alloc_mb_op", "MB", lower, 0.01},
	{"optimize_peak_rss_mb", "MB", lower, 0.25},
	{"verify_cost_rel", "x_calib", lower, 0.25},
	{"bolted_cycles_rel", "%", lower, 0.03},
	{"hot_text_kb", "KB", lower, 0.01},
}

// passNames are the per-pass timing rows, in pipeline order; the two
// rounds of icf-hash, icf and peepholes are summed under one name.
var passNames = []string{
	"strip-rep-ret", "icf-hash", "icf", "icp", "peepholes", "inline-small",
	"simplify-ro-loads", "plt", "reorder-bbs", "uce", "reorder-functions",
	"sctc", "frame-opts", "shrink-wrapping",
}

// passStats maps a per-layer application count to the pipeline counter
// behind it (core.StatDefs names).
var passStats = []struct{ metric, stat string }{
	{"passes.icf_folded", "icf-folded"},
	{"passes.icp_promoted", "icp-promoted"},
	{"passes.inline_small", "inline-small"},
	{"passes.plt_calls", "plt-calls"},
	{"passes.reorder_bbs_funcs", "reorder-bbs-funcs"},
	{"passes.split_funcs", "split-functions"},
	{"passes.split_cold_blocks", "split-cold-blocks"},
	{"passes.uce_blocks", "uce-blocks"},
	{"passes.frame_opts_spills", "frame-opts-spills"},
	{"passes.shrink_wrapped", "shrink-wrapping"},
	{"passes.sctc_count", "sctc-count"},
}

// perLayer lists the numbers of single layers, from the traced run. They
// have no bound; README.md says which end-to-end metric each should move.
var perLayer = func() []metricDef {
	m := func(name, unit, better string) metricDef { return metricDef{Name: name, Unit: unit, Better: better} }
	defs := []metricDef{
		m("workload.generate_ms", "ms", lower),
		m("cc.compile_ms", "ms", lower),
		m("ld.link_ms", "ms", lower),
		m("perf.record_ms", "ms", lower),
		m("vm.sim_minstr_s", "Minstr/s", higher),

		m("session.wall_s", "s", lower),
		m("session.calib_s", "s", lower),
		m("session.layer_gap_pct", "%", lower),
		m("session.jobs2_speedup_x", "x", higher),

		m("elfx.read_ms", "ms", lower),
		m("elfx.write_ms", "ms", lower),
		m("elfx.output_kb", "KB", lower),
		m("profile.parse_ms", "ms", lower),
		m("profile.records", "count", higher),

		m("core.load_ms", "ms", lower),
		m("core.load_allocs", "allocs", lower),
		m("core.load_funcs", "count", higher),
		m("core.load_blocks", "count", higher),
		m("core.load_simple_share", "ratio", higher),

		m("core.profile_ms", "ms", lower),
		m("core.profile_allocs", "allocs", lower),
		m("core.profile_stale_funcs", "count", lower),
		m("core.profile_inferred_funcs", "count", lower),
		m("core.profile_applied_share", "ratio", higher),
		m("core.profile_flow_acc", "ratio", higher),

		m("passes.total_ms", "ms", lower),
		m("passes.total_allocs", "allocs", lower),
	}
	for _, p := range passNames {
		defs = append(defs, m("passes."+p+"_ms", "ms", lower))
	}
	for _, ps := range passStats {
		defs = append(defs, m(ps.metric, "count", higher))
	}
	return append(defs,
		m("core.emit_ms", "ms", lower),
		m("core.emit_allocs", "allocs", lower),
		m("core.emit_moved_funcs", "count", higher),
		m("core.emit_cold_kb", "KB", higher),

		m("bincheck.check_ms", "ms", lower),
		m("bincheck.fragments", "count", higher),
		m("bincheck.findings", "count", lower),

		m("uarch.baseline_cycles_m", "Mcycles", lower),
		m("uarch.bolted_cycles_m", "Mcycles", lower),
		m("uarch.bolted_speedup_pct", "%", higher),
		m("uarch.instr_reduction_pct", "%", higher),
		m("uarch.baseline_instr_m", "Minstr", lower),
		m("uarch.l1i_miss_reduction_pct", "%", higher),
		m("uarch.baseline_l1i_miss", "count", lower),
		m("uarch.itlb_miss_reduction_pct", "%", higher),
		m("uarch.baseline_itlb_miss", "count", lower),
		m("uarch.branch_miss_reduction_pct", "%", higher),
		m("uarch.baseline_branch_miss", "count", lower),
		m("uarch.taken_branch_reduction_pct", "%", higher),
		m("uarch.baseline_taken_branches", "count", lower),
	)
}()
