package obsv

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// record builds a tracer with one two-worker phase: the phase spans
// 10ms, worker 0 runs two tasks (6ms busy), worker 1 one task (4ms).
func record(t *testing.T) *Tracer {
	t.Helper()
	tr := New()
	e := tr.epoch
	tr.EnsureWorkers(2)
	tr.Task(0, "load", "f1", e, 2*time.Millisecond)
	tr.Task(0, "load", "f2", e.Add(2*time.Millisecond), 4*time.Millisecond)
	tr.Task(1, "load", "f3", e, 4*time.Millisecond)
	tr.Batch(0, "load", e, 6*time.Millisecond, 2)
	tr.Batch(1, "load", e, 4*time.Millisecond, 1)
	tr.Phase("load", e, 10*time.Millisecond, 2)
	return tr
}

func TestTracerSpans(t *testing.T) {
	tr := record(t)
	spans := tr.Spans()
	if len(spans) != 6 {
		t.Fatalf("got %d spans, want 6", len(spans))
	}
	// Sorted by start; the phase (start 0) sorts before same-start tasks.
	if spans[0].Kind != KindPhase || spans[0].Name != "load" || spans[0].N != 2 {
		t.Fatalf("first span = %+v, want the load phase", spans[0])
	}
	var tasks, batches int
	for _, s := range spans {
		switch s.Kind {
		case KindTask:
			tasks++
			if s.Phase != "load" {
				t.Errorf("task %q has phase %q", s.Name, s.Phase)
			}
		case KindBatch:
			batches++
		}
	}
	if tasks != 3 || batches != 2 {
		t.Errorf("got %d tasks, %d batches; want 3, 2", tasks, batches)
	}
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	// Every recording entry point must be a no-op on the nil tracer.
	tr.EnsureWorkers(4)
	tr.Phase("p", time.Now(), time.Millisecond, 1)
	if got := tr.Spans(); got != nil {
		t.Errorf("nil tracer recorded spans: %v", got)
	}
	if tr.Workers() != 0 {
		t.Errorf("nil tracer has workers")
	}
}

func TestOccupancy(t *testing.T) {
	tr := record(t)
	occ := Occupancy(tr.Spans())
	if len(occ) != 1 {
		t.Fatalf("got %d occupancy rows, want 1", len(occ))
	}
	o := occ[0]
	if o.Phase != "load" || o.Jobs != 2 || o.Tasks != 3 {
		t.Fatalf("row = %+v", o)
	}
	if o.WallNS != (10 * time.Millisecond).Nanoseconds() {
		t.Errorf("wall = %d", o.WallNS)
	}
	if o.BusyNS != (10 * time.Millisecond).Nanoseconds() {
		t.Errorf("busy = %d", o.BusyNS)
	}
	// busy / (wall * jobs) = 10ms / 20ms.
	if o.Utilization < 0.499 || o.Utilization > 0.501 {
		t.Errorf("utilization = %v, want 0.5", o.Utilization)
	}
	// Durations sorted: 2, 4, 4 → p50 = 4ms, p99 = 4ms (nearest rank).
	if o.P50NS != (4 * time.Millisecond).Nanoseconds() {
		t.Errorf("p50 = %d", o.P50NS)
	}
	if len(o.Stragglers) != 3 || o.Stragglers[0].DurNS != (4*time.Millisecond).Nanoseconds() {
		t.Errorf("stragglers = %+v", o.Stragglers)
	}
	// Equal-duration stragglers tie-break by name.
	if o.Stragglers[0].Name != "f2" || o.Stragglers[1].Name != "f3" {
		t.Errorf("straggler order = %+v", o.Stragglers)
	}
}

func TestOccupancySkipsTasklessPhases(t *testing.T) {
	tr := New()
	tr.Phase("barrier", tr.epoch, time.Millisecond, 1)
	if occ := Occupancy(tr.Spans()); len(occ) != 0 {
		t.Errorf("taskless phase produced occupancy rows: %+v", occ)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := record(t)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("self-emitted trace invalid: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{`"pipeline"`, `"worker 0"`, `"worker 1"`, `"task:load"`, `"batch:load"`, `"cat":"phase"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s:\n%s", want, out)
		}
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"empty":        `{"traceEvents":[]}`,
		"unknown":      `{"traceEvents":[],"bogus":1}`,
		"no-phase":     `{"traceEvents":[{"name":"x","cat":"task:p","ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`,
		"bad-ph":       `{"traceEvents":[{"name":"x","cat":"phase","ph":"B","ts":0,"pid":1,"tid":0}]}`,
		"neg-dur":      `{"traceEvents":[{"name":"x","cat":"phase","ph":"X","ts":0,"dur":-1,"pid":1,"tid":0}]}`,
		"bad-cat":      `{"traceEvents":[{"name":"x","cat":"wat","ph":"X","ts":0,"dur":1,"pid":1,"tid":0}]}`,
		"phase-on-tid": `{"traceEvents":[{"name":"x","cat":"phase","ph":"X","ts":0,"dur":1,"pid":1,"tid":3}]}`,
	}
	for name, in := range cases {
		if err := ValidateChromeTrace([]byte(in)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
}

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{cpu, mem} {
		if fi, err := os.Stat(name); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written (%v)", name, err)
		}
	}

	missing := filepath.Join(dir, "no-such-dir", "p.pprof")
	if _, err := StartProfiles(missing, ""); err == nil {
		t.Error("an uncreatable CPU profile must fail the start")
	}
	stop, err = StartProfiles("", missing)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Errorf("an unwritable heap profile must fail the stop, got %v", err)
	}
}
