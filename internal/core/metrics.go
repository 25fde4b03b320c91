package core

import (
	"fmt"
	"strings"

	"gobolt/internal/obsv"
)

// Metric names for the pipeline's histograms and gauges. The
// per-function histograms exist for the re-optimization service's
// quality gate: thresholding them rejects individual bad functions
// instead of whole profiles.
const (
	// MetricFlowAccuracy is the per-function flow-equation consistency
	// after profile application and inference (1.0 = every block's
	// count equals its out-flow), observed once per profiled simple
	// function with the function name as label.
	MetricFlowAccuracy = "flow-accuracy"
	// MetricStaleMatchQuality is the fraction of a stale function's
	// recorded block shapes that matched the current CFG, observed once
	// per stale-matched function with the function name as label.
	MetricStaleMatchQuality = "stale-match-quality"
	// MetricFlowAccBefore/After mirror ctx.FlowAccBefore/After as
	// registry gauges.
	MetricFlowAccBefore = "flow-accuracy-before"
	MetricFlowAccAfter  = "flow-accuracy-after"
)

// statTotal is the parent every count-weighted profile stat sums into.
const statTotal = "profile-total-count"

// qualityBuckets are the histogram bounds shared by the two
// per-function quality metrics — both are fractions in [0,1], and the
// gate cares about resolution near 1.0.
var qualityBuckets = []float64{0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0}

// StatDefs declares every statistic the pipeline records: it is the
// single source of truth behind ctx.Stats, the README's documented
// stat-key list (StatKeyDoc), and the sum-to-total invariant test.
// Adding a stat key anywhere in the engine without declaring it here
// makes Registry.Undeclared non-empty, which a test turns into a
// failure — keys can no longer drift undocumented.
func StatDefs() []obsv.Def {
	counter := func(name, help string) obsv.Def {
		return obsv.Def{Name: name, Kind: obsv.Counter, Help: help}
	}
	weighted := func(name, help string) obsv.Def {
		return obsv.Def{Name: name, Kind: obsv.Counter, Help: help, SumTo: statTotal}
	}
	return []obsv.Def{
		// Loader (NewContext): every discovered function lands in
		// exactly one of simple/non-simple.
		counter("load-simple", "functions disassembled into a complete CFG"),
		counter("load-blocks", "basic blocks built across all simple functions"),
		counter("load-non-simple", "functions left untouched (indirect tails, jump tables, undecodable bytes)"),
		counter("load-cfi-bad-reg", "CFI save/restore rules skipped because they name a register number the unwind state cannot track"),

		// Profile application (ApplyProfile): counts are weighted by
		// record count, so the eight weighted keys sum exactly to
		// profile-total-count.
		counter(statTotal, "every branch or sample record seen, count-weighted"),
		weighted("profile-edge-count", "applied to an intra-function CFG edge"),
		weighted("profile-call-count", "applied as a call/entry record (ExecCount)"),
		weighted("profile-sample-count", "applied as a PC sample to a block (non-LBR)"),
		weighted("profile-ignored-count", "carries no CFG info (returns, non-branch sources, mid-function landings, non-simple functions)"),
		weighted("profile-drop-count", "(function, offset) failed to resolve"),
		weighted("profile-stale-count", "recovered by stale shape matching (arXiv:2401.17168)"),
		weighted("profile-stale-drop-count", "stale and unrecoverable"),
		counter("profile-stale-funcs", "functions whose shapes mismatched and were routed through the stale matcher"),
		counter("profile-inferred-funcs", "functions rebalanced by the minimum-cost flow solver"),

		// Optimization passes (pipeline order).
		counter("lite-skipped", "functions skipped by lite mode (no profile samples)"),
		counter("icf-hashed", "functions hashed by identical-code-folding"),
		counter("icf-folded", "functions folded into an identical twin"),
		counter("icf-bytes", "code bytes eliminated by ICF"),
		counter("inline-small", "small-call sites inlined"),
		counter("plt-calls", "PLT calls rewritten to direct calls"),
		counter("icp-promoted", "indirect-call sites promoted to conditional direct calls"),
		counter("icp-flags-blocked", "ICP candidates blocked by live EFLAGS"),
		counter("simplify-ro-loads", "loads from read-only data folded to immediates"),
		counter("simplify-ro-loads-aborted", "read-only load folds abandoned (grew the instruction)"),
		counter("peephole-selfmove", "self-move instructions deleted"),
		counter("peephole-jump-thread", "jumps threaded through empty blocks"),
		counter("strip-rep-ret", "repz ret prefixes stripped"),
		counter("uce-blocks", "unreachable basic blocks eliminated"),
		counter("reorder-bbs-funcs", "functions whose basic blocks were relaid out"),
		counter("reorder-functions", "functions placed by the global reordering"),
		counter("split-functions", "functions split into hot and cold fragments"),
		counter("split-cold-blocks", "basic blocks moved to cold fragments"),
		counter("sctc", "functions changed by simplify-conditional-tail-calls"),
		counter("sctc-count", "conditional tail calls simplified"),
		counter("frame-opts-spills", "callee-saved spills removed by frame optimization"),
		counter("shrink-wrapping", "functions with saves sunk by shrink wrapping"),

		// Per-function quality distributions + binary-level gauges.
		{Name: MetricFlowAccuracy, Kind: obsv.HistogramKind, Buckets: qualityBuckets,
			Help: "per-function count-weighted flow-equation consistency after inference"},
		{Name: MetricStaleMatchQuality, Kind: obsv.HistogramKind, Buckets: qualityBuckets,
			Help: "per-function fraction of stale block shapes matched to the current CFG"},
		{Name: MetricFlowAccBefore, Kind: obsv.Gauge, Help: "binary-level flow accuracy before profile inference"},
		{Name: MetricFlowAccAfter, Kind: obsv.Gauge, Help: "binary-level flow accuracy after profile inference"},
	}
}

// StatKeyDoc renders the declared stats as the markdown table embedded
// in the README between the stat-keys markers; a test keeps the two in
// sync so the documentation is generated, not hand-maintained.
func StatKeyDoc() string {
	var b strings.Builder
	b.WriteString("| key | kind | meaning |\n|---|---|---|\n")
	for _, d := range StatDefs() {
		help := d.Help
		if d.SumTo != "" {
			help += fmt.Sprintf(" (sums into `%s`)", d.SumTo)
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", d.Name, d.Kind, help)
	}
	return b.String()
}
