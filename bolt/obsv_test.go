package bolt_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"gobolt/bolt"
	"gobolt/internal/obsv"
	"gobolt/internal/profile"
)

// traceShape reduces a span set to its deterministic structure: the
// phase-name sequence in execution order, and per phase the sorted
// multiset of task names. Which worker ran which task and how the batch
// intervals split are scheduling-dependent and deliberately excluded.
type traceShape struct {
	phases    []string
	taskNames map[string][]string
}

func shapeOf(spans []obsv.Span) traceShape {
	sh := traceShape{taskNames: map[string][]string{}}
	for _, s := range spans {
		switch s.Kind {
		case obsv.KindPhase:
			sh.phases = append(sh.phases, s.Name)
		case obsv.KindTask:
			sh.taskNames[s.Phase] = append(sh.taskNames[s.Phase], s.Name)
		}
	}
	for _, names := range sh.taskNames {
		sort.Strings(names)
	}
	return sh
}

// TestTraceDeterministicAcrossJobs is the tracing counterpart of the
// byte-identical-output contract: the recorded span timeline has the
// same structure for every worker count — identical phase-name order,
// identical per-phase task-name multisets — while worker assignment and
// batch splits are free. The export must also validate as Chrome
// trace-event JSON and carry at least one span per pipeline stage.
func TestTraceDeterministicAcrossJobs(t *testing.T) {
	f := buildTiny(t)
	fd := record(t, f)

	shapes := map[int]traceShape{}
	for _, jobs := range []int{1, 2, 4} {
		tr := obsv.New()
		optimizeViaSession(t, f, fd, jobs, bolt.WithTracer(tr))
		spans := tr.Spans()
		shapes[jobs] = shapeOf(spans)

		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("jobs=%d: write trace: %v", jobs, err)
		}
		if err := obsv.ValidateChromeTrace(buf.Bytes()); err != nil {
			t.Errorf("jobs=%d: exported trace invalid: %v", jobs, err)
		}
	}

	base := shapes[1]
	for _, stage := range []string{"profile:load", "load:", "profile:apply", "reorder", "emit:"} {
		if !slices.ContainsFunc(base.phases, func(name string) bool {
			return strings.Contains(name, stage)
		}) {
			t.Errorf("no phase span matching %q in %v", stage, base.phases)
		}
	}
	for _, jobs := range []int{2, 4} {
		sh := shapes[jobs]
		if !slices.Equal(base.phases, sh.phases) {
			t.Errorf("jobs=%d: phase sequence diverged from jobs=1:\n  %v\nvs\n  %v",
				jobs, base.phases, sh.phases)
		}
		if !reflect.DeepEqual(base.taskNames, sh.taskNames) {
			for phase, names := range base.taskNames {
				if !slices.Equal(names, sh.taskNames[phase]) {
					t.Errorf("jobs=%d: phase %q task multiset diverged (%d vs %d tasks)",
						jobs, phase, len(names), len(sh.taskNames[phase]))
				}
			}
		}
	}
}

// TestOccupancyConsistentWithTimings pins the derived occupancy stats to
// the -time-passes instrumentation they sit next to: a pooled phase's
// occupancy wall is exactly the wall the PassTiming rows recorded (the
// phase span and the timing row are fed from the same measurement), and
// busy time never exceeds wall × jobs.
func TestOccupancyConsistentWithTimings(t *testing.T) {
	f := buildTiny(t)
	fd := record(t, f)
	tr := obsv.New()
	_, rep, _ := optimizeViaSession(t, f, fd, 2, bolt.WithTracer(tr))

	occ := rep.Occupancy
	if len(occ) == 0 {
		t.Fatal("traced run derived no occupancy stats")
	}

	// Every phase name appears once in a run (TestGoldenOutputs'
	// passes-once-and-act), so each occupancy row has one timing row.
	wallByName := map[string]int64{}
	for _, pt := range rep.Phases {
		wallByName[pt.Name] = pt.Wall.Nanoseconds()
	}
	matched := 0
	for _, ps := range occ {
		if ps.Tasks == 0 {
			t.Errorf("occupancy row %q has no tasks", ps.Phase)
		}
		if ps.BusyNS > ps.WallNS*int64(ps.Jobs) {
			t.Errorf("occupancy row %q: busy %dns exceeds wall %dns x %d jobs",
				ps.Phase, ps.BusyNS, ps.WallNS, ps.Jobs)
		}
		if ps.Utilization < 0 || ps.Utilization > 1+1e-9 {
			t.Errorf("occupancy row %q: utilization %v out of [0,1]", ps.Phase, ps.Utilization)
		}
		want, ok := wallByName[ps.Phase]
		if !ok {
			continue // trace-only phases (profile:load) have no timing row
		}
		matched++
		if ps.WallNS != want {
			t.Errorf("occupancy row %q wall %dns != -time-passes wall %dns",
				ps.Phase, ps.WallNS, want)
		}
	}
	if matched < 3 {
		t.Errorf("only %d occupancy rows matched a timing row; instrumentation drifted", matched)
	}
}

// topLevelKeys returns the keys of a JSON object in document order.
func topLevelKeys(t *testing.T, data []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("report is not a JSON object: %v %v", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		if err := dec.Decode(new(json.RawMessage)); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestRunReportRoundTrip feeds Report.WriteJSON back through the strict
// decoder: a live report — from a traced, dyno-stats, verified run and
// from one with no profile and no dyno — must parse with unknown fields
// disallowed, validate, come back as the same type and re-encode to the
// same bytes, with the top-level keys in the schema's pinned order. It
// also pins the strictness properties themselves (unknown field,
// trailing data, version mismatch and an undeclared counter all fail).
func TestRunReportRoundTrip(t *testing.T) {
	f := buildTiny(t)
	var buf bytes.Buffer
	for _, tc := range []struct {
		name   string
		fd     *profile.Fdata
		opts   []bolt.Option
		verify bool
		keys   []string
	}{
		{"traced+dyno+verify", record(t, f),
			[]bolt.Option{bolt.WithTracer(obsv.New()), bolt.WithDynoStats(true)}, true,
			[]string{"schema_version", "input", "input_sha256", "input_size", "options",
				"functions", "sizes", "phases", "occupancy", "metrics", "profile", "dyno", "verify"}},
		{"no profile, no dyno", nil, nil, false,
			[]string{"schema_version", "input", "input_sha256", "input_size", "options",
				"functions", "sizes", "phases", "metrics"}},
	} {
		_, rep, sess := optimizeViaSession(t, f, tc.fd, 2, tc.opts...)
		if tc.verify {
			if _, err := sess.VerifyOutput(); err != nil {
				t.Fatalf("%s: VerifyOutput: %v", tc.name, err)
			}
		}
		var live bytes.Buffer
		if err := rep.WriteJSON(&live); err != nil {
			t.Fatalf("%s: WriteJSON: %v", tc.name, err)
		}
		if err := bolt.ValidateRunReport(live.Bytes()); err != nil {
			t.Fatalf("%s: ValidateRunReport: %v", tc.name, err)
		}
		var got *bolt.Report // a parsed report is the type Optimize returns
		got, err := bolt.ParseRunReport(live.Bytes())
		if err != nil {
			t.Fatalf("%s: ParseRunReport: %v", tc.name, err)
		}
		var again bytes.Buffer
		if err := got.WriteJSON(&again); err != nil {
			t.Fatalf("%s: re-encode: %v", tc.name, err)
		}
		if !bytes.Equal(live.Bytes(), again.Bytes()) {
			t.Errorf("%s: encode -> parse -> encode is not a fixpoint:\nlive   %s\nparsed %s", tc.name, live.Bytes(), again.Bytes())
		}
		if keys := topLevelKeys(t, live.Bytes()); !slices.Equal(keys, tc.keys) {
			t.Errorf("%s: top-level keys\n got %v\nwant %v", tc.name, keys, tc.keys)
		}
		if got.Functions != rep.Functions || got.Sizes != rep.Sizes || got.HotTextSize == 0 {
			t.Errorf("%s: accounting did not survive: %+v %+v", tc.name, got.Functions, got.Sizes)
		}
		if len(got.Metrics) == 0 || !reflect.DeepEqual(got.Metrics, rep.Metrics) {
			t.Errorf("%s: round-tripped report lost the metrics snapshot", tc.name)
		}
		if tc.verify {
			if *got.Profile != *rep.Profile || *got.Dyno != *rep.Dyno || len(got.Occupancy) != len(rep.Occupancy) ||
				got.Verify.Fragments != rep.Verify.Fragments {
				t.Errorf("%s: profile, dyno, occupancy or verify block did not survive", tc.name)
			}
			buf = live
		}
	}

	// Strictness: unknown fields, trailing data, version drift, and a
	// metric name core.StatDefs does not declare.
	undeclared := bytes.ReplaceAll(buf.Bytes(), []byte(`"load-simple"`), []byte(`"load-simpel"`))
	if err := bolt.ValidateRunReport(undeclared); err == nil || !strings.Contains(err.Error(), "load-simpel") {
		t.Errorf("ValidateRunReport on an undeclared counter name: %v", err)
	}
	unknown := bytes.Replace(buf.Bytes(), []byte(`"schema_version"`), []byte(`"bogus_field": 1, "schema_version"`), 1)
	if _, err := bolt.ParseRunReport(unknown); err == nil {
		t.Error("ParseRunReport accepted an unknown field")
	}
	trailing := append(append([]byte{}, buf.Bytes()...), []byte("{}")...)
	if _, err := bolt.ParseRunReport(trailing); err == nil {
		t.Error("ParseRunReport accepted trailing data")
	}
	verTag := fmt.Sprintf(`"schema_version": %d`, bolt.ReportSchemaVersion)
	if !bytes.Contains(buf.Bytes(), []byte(verTag)) {
		t.Fatalf("report JSON does not carry %s", verTag)
	}
	wrongVer := bytes.Replace(buf.Bytes(), []byte(verTag), []byte(`"schema_version": 999`), 1)
	if _, err := bolt.ParseRunReport(wrongVer); err == nil {
		t.Error("ParseRunReport accepted a mismatched schema version")
	}
}
