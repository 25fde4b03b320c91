package bolt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"gobolt/internal/bincheck"
	"gobolt/internal/core"
	"gobolt/internal/obsv"
)

// ReportSchemaVersion is the version stamped into every RunReport. It
// increments whenever a field is removed, changes meaning, or is added:
// ParseRunReport is strict (unknown fields are errors), so even
// additive changes are visible to consumers. v2 added the `verify`
// block (independent output verification, internal/bincheck).
const ReportSchemaVersion = 2

// RunReport is the machine-readable form of a Report: a versioned,
// stable JSON schema for dashboards, CI gates, and experiment harnesses
// (`gobolt -report-json`, boltbench artifacts). All durations are
// nanoseconds; all sizes are bytes. The committed JSON Schema lives in
// docs/report.schema.json.
type RunReport struct {
	SchemaVersion int `json:"schema_version"`

	// Input identity: the path/name the session opened plus the sha256
	// (hex) and byte size of the serialized input image.
	Input       string `json:"input"`
	InputSHA256 string `json:"input_sha256,omitempty"`
	InputSize   int    `json:"input_size,omitempty"`

	// Options is the resolved option set the run used (core.Options
	// field names; the tracer handle is operational state and excluded).
	Options core.Options `json:"options"`

	// Functions is the rewrite accounting; Sizes the layout sizes.
	Functions RunFunctions `json:"functions"`
	Sizes     RunSizes     `json:"sizes"`

	// Phases lists every instrumented pipeline phase in execution order
	// (load → passes → emit); Amdahl is the serial/parallel fold of the
	// same list.
	Phases []RunPhase `json:"phases"`
	Amdahl RunAmdahl  `json:"amdahl"`

	// Occupancy holds per-phase worker-pool statistics derived from the
	// span trace; present only when the run traced (WithTracer).
	Occupancy []obsv.PhaseStats `json:"occupancy,omitempty"`

	// Metrics is the typed registry snapshot: every pipeline counter,
	// the flow-accuracy gauges, and the per-function quality histograms
	// (flow-accuracy and stale-match-quality distributions).
	Metrics *obsv.Snapshot `json:"metrics,omitempty"`

	// Profile describes the sample data that drove the run; absent for
	// profile-less runs.
	Profile *RunProfile `json:"profile,omitempty"`

	// Dyno holds the before/after dynamic instruction stats; present
	// only when the session ran WithDynoStats.
	Dyno *RunDyno `json:"dyno,omitempty"`

	// Verify holds the independent static verification of the output
	// binary (rule-keyed findings; see internal/bincheck); present only
	// when the session ran VerifyOutput.
	Verify *bincheck.Result `json:"verify,omitempty"`
}

// RunFunctions is the rewrite's function accounting.
type RunFunctions struct {
	Moved   int `json:"moved"`
	Skipped int `json:"skipped"`
	Folded  int `json:"folded"`
	Split   int `json:"split"`
	Simple  int `json:"simple"`
}

// RunSizes holds the emitted section sizes versus the original .text.
type RunSizes struct {
	HotText  uint64 `json:"hot_text"`
	ColdText uint64 `json:"cold_text"`
	OrigText uint64 `json:"orig_text"`
}

// RunPhase is one instrumented pipeline phase.
type RunPhase struct {
	Name     string `json:"name"`
	Group    string `json:"group"` // "load", "pass", or "emit"
	WallNS   int64  `json:"wall_ns"`
	Funcs    int    `json:"funcs,omitempty"`
	Parallel bool   `json:"parallel,omitempty"`
	Jobs     int    `json:"jobs,omitempty"`
}

// RunAmdahl is the serial/parallel wall-clock split of the pipeline.
// MaxUsefulJobs is omitted when unbounded (no serial wall measured:
// core reports +Inf, which JSON cannot carry).
type RunAmdahl struct {
	TotalNS        int64   `json:"total_ns"`
	ParallelWallNS int64   `json:"parallel_wall_ns"`
	SerialWallNS   int64   `json:"serial_wall_ns"`
	SerialFraction float64 `json:"serial_fraction"`
	MaxUsefulJobs  float64 `json:"max_useful_jobs,omitempty"`
}

// RunProfile is the profile provenance plus the flow-inference result.
type RunProfile struct {
	Source        string  `json:"source"`
	Branches      int     `json:"branches"`
	Samples       int     `json:"samples"`
	TotalCount    uint64  `json:"total_count"`
	FlowAccBefore float64 `json:"flow_acc_before"`
	FlowAccAfter  float64 `json:"flow_acc_after"`
	InferredFuncs int     `json:"inferred_funcs"`
}

// RunDyno pairs the before/after dynamic instruction statistics.
type RunDyno struct {
	Before core.DynoStats `json:"before"`
	After  core.DynoStats `json:"after"`
}

// RunReport converts the report into its machine-readable form.
func (r *Report) RunReport() *RunReport {
	rr := &RunReport{
		SchemaVersion: ReportSchemaVersion,
		Input:         r.Input,
		InputSHA256:   r.InputSHA256,
		InputSize:     r.InputSize,
		Options:       r.Options,
		Functions: RunFunctions{
			Moved:   r.MovedFuncs,
			Skipped: r.SkippedFuncs,
			Folded:  r.FoldedFuncs,
			Split:   r.SplitFuncs,
			Simple:  r.SimpleFuncs,
		},
		Sizes: RunSizes{
			HotText:  r.HotTextSize,
			ColdText: r.ColdTextSize,
			OrigText: r.OrigTextSize,
		},
		Occupancy: r.OccupancyStats(),
		Metrics:   r.Metrics,
	}
	// The tracer handle is operational state, not run description; drop
	// it so the in-memory RunReport round-trips through JSON exactly.
	rr.Options.Trace = nil
	for _, t := range r.Timings {
		rr.Phases = append(rr.Phases, RunPhase{
			Name:     t.Name,
			Group:    t.Group,
			WallNS:   t.Wall.Nanoseconds(),
			Funcs:    t.Funcs,
			Parallel: t.Parallel,
			Jobs:     t.Jobs,
		})
	}
	am := core.Amdahl(r.Timings)
	rr.Amdahl = RunAmdahl{
		TotalNS:        am.Total.Nanoseconds(),
		ParallelWallNS: am.ParallelWall.Nanoseconds(),
		SerialWallNS:   am.SerialWall.Nanoseconds(),
		SerialFraction: am.SerialFraction,
	}
	if !math.IsInf(am.MaxUsefulJobs, 1) {
		rr.Amdahl.MaxUsefulJobs = am.MaxUsefulJobs
	}
	if r.ProfileSource != "" {
		rr.Profile = &RunProfile{
			Source:        r.ProfileSource,
			Branches:      r.ProfileBranches,
			Samples:       r.ProfileSamples,
			TotalCount:    r.ProfileTotalCount,
			FlowAccBefore: r.FlowAccBefore,
			FlowAccAfter:  r.FlowAccAfter,
			InferredFuncs: r.InferredFuncs,
		}
	}
	if r.HasDynoStats {
		rr.Dyno = &RunDyno{Before: r.DynoBefore, After: r.DynoAfter}
	}
	rr.Verify = r.Verify
	return rr
}

// WriteJSON writes the versioned machine-readable run report (indented,
// trailing newline) — the payload behind `gobolt -report-json`.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.RunReport())
}

// ParseRunReport decodes a run report strictly: unknown fields anywhere
// in the document are errors (schema drift fails loudly instead of
// silently dropping data), as are version mismatches and trailing
// garbage.
func ParseRunReport(data []byte) (*RunReport, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rr RunReport
	if err := dec.Decode(&rr); err != nil {
		return nil, fmt.Errorf("bolt: parse run report: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("bolt: parse run report: trailing data after document")
	}
	if rr.SchemaVersion != ReportSchemaVersion {
		return nil, fmt.Errorf("bolt: run report schema_version %d, want %d", rr.SchemaVersion, ReportSchemaVersion)
	}
	return &rr, nil
}

// ValidateRunReport checks that data is a well-formed run report:
// strictly parseable, current schema version, and structurally sane
// (non-empty input, at least one phase, non-negative walls, occupancy
// utilization within [0,1]).
func ValidateRunReport(data []byte) error {
	rr, err := ParseRunReport(data)
	if err != nil {
		return err
	}
	if rr.Input == "" {
		return fmt.Errorf("bolt: run report: empty input")
	}
	if len(rr.Phases) == 0 {
		return fmt.Errorf("bolt: run report: no phases")
	}
	for _, p := range rr.Phases {
		if p.Name == "" {
			return fmt.Errorf("bolt: run report: phase with empty name")
		}
		if p.WallNS < 0 {
			return fmt.Errorf("bolt: run report: phase %q has negative wall", p.Name)
		}
		switch p.Group {
		case "load", "pass", "emit":
		default:
			return fmt.Errorf("bolt: run report: phase %q has unknown group %q", p.Name, p.Group)
		}
	}
	if rr.Amdahl.TotalNS < 0 || rr.Amdahl.SerialFraction < 0 || rr.Amdahl.SerialFraction > 1 {
		return fmt.Errorf("bolt: run report: implausible amdahl summary %+v", rr.Amdahl)
	}
	for _, o := range rr.Occupancy {
		if o.Utilization < 0 || o.Utilization > 1+1e-9 {
			return fmt.Errorf("bolt: run report: occupancy %q utilization %v out of range", o.Phase, o.Utilization)
		}
	}
	// A report is the one place stat names arrive as strings from outside
	// the program: each must be declared, under its kind, in core.StatDefs.
	if m := rr.Metrics; m != nil {
		declared := map[string]obsv.MetricKind{}
		for _, d := range core.StatDefs() {
			declared[d.Name] = d.Kind
		}
		var bad []string
		note := func(name string, kind obsv.MetricKind) {
			if k, ok := declared[name]; !ok || k != kind {
				bad = append(bad, fmt.Sprintf("%s %q", kind, name))
			}
		}
		for name := range m.Counters {
			note(name, obsv.Counter)
		}
		for name := range m.Gauges {
			note(name, obsv.Gauge)
		}
		for _, h := range m.Histograms {
			note(h.Name, obsv.HistogramKind)
		}
		if len(bad) > 0 {
			sort.Strings(bad)
			return fmt.Errorf("bolt: run report: metrics not declared in core.StatDefs: %s", strings.Join(bad, ", "))
		}
	}
	if v := rr.Verify; v != nil {
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
