package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"gobolt/internal/perf"
	"gobolt/internal/workload"
)

// TestMain lets the test binary stand in for the benchmark binary when
// peakRSS re-executes it to run one op.
func TestMain(m *testing.M) {
	if dir := os.Getenv(childEnv); dir != "" {
		if err := childOp(dir); err != nil {
			logf("child op: %v", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var tiny = workloadDef{Name: "tiny", Why: "test", spec: workload.Tiny, mode: perf.DefaultMode()}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesBinary holds BENCHMARK.json and the tables in
// metrics.go and workloads.go in step.
func TestManifestMatchesBinary(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the binary %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		def, ok := workloadByName(w.Name)
		if !ok {
			t.Errorf("workload %q is not in the binary", w.Name)
			continue
		}
		if w.Why == "" || w.Why != def.Why || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be non-empty, at most 200 characters and the same in both places", w.Name)
		}
	}

	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the binary %d", kind, len(got), len(want))
			return
		}
		seen := map[string]bool{}
		for i, g := range got {
			if g != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, binary %+v", kind, i, g, want[i])
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) {
				t.Errorf("%s: bad name or unit in %+v", kind, g)
			}
			if g.Better != lower && g.Better != higher {
				t.Errorf("%s: %s: better is %q", kind, g.Name, g.Better)
			}
			if seen[g.Name] {
				t.Errorf("%s: %s listed twice", kind, g.Name)
			}
			seen[g.Name] = true
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != lower {
		t.Errorf("setup_s must be a lower-is-better metric in s")
	}
}

// wantMetrics fails unless res carries exactly the metrics of defs.
func wantMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s not emitted", d.Name)
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v", d.Name, v)
		}
	}
}

func TestEndToEndRun(t *testing.T) {
	res, err := endToEndRun(context.Background(), tiny, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantMetrics(t, res, endToEnd)
	for _, d := range endToEnd {
		if res.Metrics[d.Name] <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, res.Metrics[d.Name])
		}
	}
	// 1 serial first op + timed ops + child processes.
	if least := 1 + minOps + rssReps.min; res.Attempted < least || res.Failed != 0 || !res.Correct {
		t.Errorf("attempted %d failed %d correct %v, want at least %d, 0, true", res.Attempted, res.Failed, res.Correct, least)
	}
}

// TestTracedRun checks the layered run: tracedRun itself fails unless the
// layered output hash-equals the Session's, and the layers' walls must
// account for the Session's wall.
func TestTracedRun(t *testing.T) {
	tr := newTracer()
	res, err := tracedRun(context.Background(), tiny, 1, 0.5, tr)
	if err != nil {
		t.Fatal(err)
	}
	wantMetrics(t, res, perLayer)
	if res.Failed != 0 || !res.Correct {
		t.Errorf("failed %d correct %v", res.Failed, res.Correct)
	}
	if gap := res.Metrics["session.layer_gap_pct"]; math.Abs(gap) > 25 {
		t.Errorf("layer walls differ from the Session wall by %.1f%%, want within 25%%", gap)
	}
	for i, s := range tr.spans {
		if s.Parent >= i || s.EndNS < s.StartNS {
			t.Fatalf("span %d %+v: parent must precede it and it must not end before it starts", i, s)
		}
		if s.Parent >= 0 && tr.spans[s.Parent].Op != s.Op {
			t.Fatalf("span %d %+v belongs to another op than its parent", i, s)
		}
	}
}

func TestSeedChangesInputsOnly(t *testing.T) {
	a, err := build(tiny, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := build(tiny, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := build(tiny, 2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.elf) != string(b.elf) || string(a.fdata) != string(b.fdata) || a.evalSeeds != b.evalSeeds {
		t.Error("the same seed gave different inputs")
	}
	if string(a.elf) == string(c.elf) || a.evalSeeds == c.evalSeeds {
		t.Error("another seed gave the same binary or evaluation inputs")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{3, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {1000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestSpreadMatchesPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, the rule the driver judges by.
func TestSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 9, 13, 14, 10.5, 12.5, 11.5}
	q1, q3 := quartiles(xs)
	if math.Abs(q1-10.375) > 1e-12 || math.Abs(q3-13.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v, want 10.375, 13.25", q1, q3)
	}
	if got, want := spread(xs), (13.25-10.375)/11.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two values = %v, %v, want 0.75, 2.25", q1, q3)
	}
}
