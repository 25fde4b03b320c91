package bolt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"gobolt/internal/bincheck"
	"gobolt/internal/core"
	"gobolt/internal/obsv"
)

// ReportSchemaVersion is the version stamped into every Report. It
// increments whenever a field is removed, changes meaning, or is added:
// ParseRunReport is strict (unknown fields are errors), so even
// additive changes are visible to consumers. v2 added `verify`
// (internal/bincheck); v3 removed `options.AlignFunctions`,
// `ICPThreshold` and `TimePasses`; v4 removed `amdahl`,
// `functions.simple`, `phases[].parallel`, `profile.total_count`,
// `profile.inferred_funcs`, gauges and histograms; v5 removed
// `options.SimplifyROLoads` and `options.SCTC` (passes deleted); v6
// removed `options.SplitAllCold` and `options.SplitEH` and made
// `options.SplitFunctions` a boolean.
const ReportSchemaVersion = 6

// Report is the structured result of Session.Optimize and, as it
// stands, the versioned JSON document behind `gobolt -report-json`:
// WriteJSON encodes it, ParseRunReport decodes it, so a live report and
// one read back from a file are the same type. CLI adapters render it;
// library callers, dashboards and CI gates assert on it. All durations
// are nanoseconds; all sizes are bytes. The committed JSON Schema lives
// in docs/report.schema.json.
type Report struct {
	SchemaVersion int `json:"schema_version"`

	// Input is the path (or "<memory>"/"<reader>") the session opened;
	// InputSHA256/InputSize fingerprint the exact input image the run
	// describes (sha256 of the serialized ELF, hex-encoded).
	Input       string `json:"input"`
	InputSHA256 string `json:"input_sha256,omitempty"`
	InputSize   int    `json:"input_size,omitempty"`

	// Options is the resolved option set the session ran with (defaults
	// plus open-time Option values), without the tracer handle.
	Options core.Options `json:"options"`

	// Functions is the rewrite accounting and Sizes the layout sizes;
	// both are embedded, so rep.MovedFuncs and rep.HotTextSize select
	// straight through.
	core.Functions `json:"functions"`
	core.Sizes     `json:"sizes"`

	// Phases is the per-phase wall-clock instrumentation in execution
	// order; each row's Group says which stage it belongs to — "load"
	// (discovery, disassembly+CFG, profile), "pass" (one row per
	// optimization pass) or "emit" (code generation, layout, patching,
	// metadata).
	Phases []core.PassTiming `json:"phases"`

	// Occupancy holds the per-phase worker-pool statistics (utilization,
	// task-duration quantiles, stragglers) derived from the span trace;
	// present only when the session ran WithTracer.
	Occupancy []obsv.PhaseStats `json:"occupancy,omitempty"`

	// Metrics is the counter snapshot taken when Optimize finished, by
	// the names core.StatDefs declares (profile matching, per-pass work).
	// A counter has a key iff it is non-zero.
	Metrics map[string]int64 `json:"metrics,omitempty"`

	// Profile describes the sample data that drove the run; nil for
	// profile-less runs.
	Profile *Profile `json:"profile,omitempty"`

	// Dyno holds the paper's dynamic instruction statistics around the
	// pass pipeline; nil unless the session ran WithDynoStats.
	Dyno *Dyno `json:"dyno,omitempty"`

	// Verify holds the independent static verification of the output
	// binary, filled by Session.VerifyOutput (nil until then). The
	// verifier re-reads the serialized output from scratch — see
	// internal/bincheck.
	Verify *bincheck.Result `json:"verify,omitempty"`
}

// Profile is the profile provenance — source description and record
// counts — plus the flow-inference result: FlowAccBefore/FlowAccAfter
// are the count-weighted flow-equation consistency of the profiled CFGs
// around the profile:infer stage (1.0 = every block's count equals its
// out-flow); record totals are the profile-* counters in Metrics.
type Profile struct {
	Source        string  `json:"source"`
	Branches      int     `json:"branches"`
	Samples       int     `json:"samples"`
	FlowAccBefore float64 `json:"flow_acc_before"`
	FlowAccAfter  float64 `json:"flow_acc_after"`
}

// Dyno pairs the before/after dynamic instruction statistics.
type Dyno struct {
	Before core.DynoStats `json:"before"`
	After  core.DynoStats `json:"after"`
}

// WriteTimings renders the -time-passes report: per-phase wall time,
// pipeline share, scheduling mode, and stat deltas for the whole
// pipeline in one table, followed by the pool-occupancy table when the
// session traced (WithTracer).
func (r *Report) WriteTimings(w io.Writer) {
	core.WriteTimings(w, r.Phases)
	obsv.WriteOccupancy(w, r.Occupancy)
}

// WriteDynoStats renders the before/after dyno-stats comparison (paper
// Table 2). No-op unless the session ran WithDynoStats.
func (r *Report) WriteDynoStats(w io.Writer) {
	if r.Dyno != nil {
		core.PrintComparison(w, r.Input, r.Dyno.Before, r.Dyno.After)
	}
}

// Summary renders the human-readable two-line result the gobolt CLI
// prints after a successful run.
func (r *Report) Summary() string {
	return fmt.Sprintf("moved %d functions (%d skipped non-simple, %d folded, %d split)\n"+
		"hot text %d bytes, cold text %d bytes (original %d)",
		r.MovedFuncs, r.SkippedFuncs, r.FoldedFuncs, r.SplitFuncs,
		r.HotTextSize, r.ColdTextSize, r.OrigTextSize)
}

// WriteJSON writes the versioned machine-readable run report (indented,
// trailing newline) — the payload behind `gobolt -report-json`.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ParseRunReport decodes a run report strictly: unknown fields anywhere
// in the document are errors (schema drift fails loudly instead of
// silently dropping data), as are version mismatches and trailing
// garbage.
func ParseRunReport(data []byte) (*Report, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("bolt: parse run report: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("bolt: parse run report: trailing data after document")
	}
	if r.SchemaVersion != ReportSchemaVersion {
		return nil, fmt.Errorf("bolt: run report schema_version %d, want %d", r.SchemaVersion, ReportSchemaVersion)
	}
	return &r, nil
}

// ValidateRunReport checks that data is a well-formed run report:
// strictly parseable, current schema version, and structurally sane
// (non-empty input, at least one phase, non-negative walls, occupancy
// utilization within [0,1], declared counter names).
func ValidateRunReport(data []byte) error {
	r, err := ParseRunReport(data)
	if err != nil {
		return err
	}
	if r.Input == "" {
		return fmt.Errorf("bolt: run report: empty input")
	}
	if len(r.Phases) == 0 {
		return fmt.Errorf("bolt: run report: no phases")
	}
	for _, p := range r.Phases {
		if p.Name == "" {
			return fmt.Errorf("bolt: run report: phase with empty name")
		}
		if p.Wall < 0 {
			return fmt.Errorf("bolt: run report: phase %q has negative wall", p.Name)
		}
		switch p.Group {
		case "load", "pass", "emit":
		default:
			return fmt.Errorf("bolt: run report: phase %q has unknown group %q", p.Name, p.Group)
		}
	}
	for _, o := range r.Occupancy {
		if o.Utilization < 0 || o.Utilization > 1+1e-9 {
			return fmt.Errorf("bolt: run report: occupancy %q utilization %v out of range", o.Phase, o.Utilization)
		}
	}
	// A report is the one place stat names arrive as strings from outside
	// the program: each must be declared in core.StatDefs.
	declared := map[string]bool{}
	for _, d := range core.StatDefs() {
		declared[d.Name] = true
	}
	var bad []string
	for name := range r.Metrics {
		if !declared[name] {
			bad = append(bad, strconv.Quote(name))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("bolt: run report: counters not declared in core.StatDefs: %s", strings.Join(bad, ", "))
	}
	if v := r.Verify; v != nil {
		errs, warns := 0, 0
		for _, f := range v.Findings {
			if f.Rule == "" {
				return fmt.Errorf("bolt: run report: verify finding with empty rule")
			}
			switch f.Severity {
			case bincheck.SeverityError:
				errs++
			case bincheck.SeverityWarning:
				warns++
			default:
				return fmt.Errorf("bolt: run report: verify finding with unknown severity %q", f.Severity)
			}
		}
		if errs != v.Errors || warns != v.Warnings {
			return fmt.Errorf("bolt: run report: verify severity tallies (%d/%d) disagree with findings (%d/%d)",
				v.Errors, v.Warnings, errs, warns)
		}
	}
	return nil
}
