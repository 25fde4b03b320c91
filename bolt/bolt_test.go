package bolt_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gobolt/bolt"
	"gobolt/internal/bench"
	"gobolt/internal/cc"
	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/ld"
	"gobolt/internal/passes"
	"gobolt/internal/perf"
	"gobolt/internal/profile"
	"gobolt/internal/vm"
	"gobolt/internal/workload"
)

// buildTiny compiles and links the Tiny synthetic workload with
// relocations kept (the paper's relocations mode).
func buildTiny(t *testing.T) *elfx.File {
	t.Helper()
	objs, err := cc.Compile(workload.Generate(workload.Tiny()), cc.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true, ICF: true})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return res.File
}

func record(t *testing.T, f *elfx.File) *profile.Fdata {
	t.Helper()
	return recordMode(t, f, perf.DefaultMode())
}

func recordMode(t *testing.T, f *elfx.File, mode perf.Mode) *profile.Fdata {
	t.Helper()
	fd, _, err := perf.RecordFile(f, mode, 0)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return fd
}

func runVM(t *testing.T, f *elfx.File) uint64 {
	t.Helper()
	m, err := vm.New(f)
	if err != nil {
		t.Fatalf("vm load: %v", err)
	}
	if _, err := m.Run(0); err != nil {
		t.Fatalf("vm run: %v", err)
	}
	if !m.Halted() {
		t.Fatal("vm did not halt")
	}
	return m.Result()
}

// optimizeViaSession drives the staged bolt API end to end (without a
// profile when fd is nil) and returns the serialized output plus the
// report.
func optimizeViaSession(t *testing.T, f *elfx.File, fd *profile.Fdata, jobs int, extra ...bolt.Option) ([]byte, *bolt.Report, *bolt.Session) {
	t.Helper()
	cx := context.Background()
	sess, err := bolt.OpenELF(f, append([]bolt.Option{bolt.WithJobs(jobs)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	if fd != nil {
		if err := sess.LoadProfile(cx, bolt.Fdata(fd)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sess.Optimize(cx)
	if err != nil {
		t.Fatalf("optimize (jobs=%d): %v", jobs, err)
	}
	var buf bytes.Buffer
	if _, err := sess.WriteTo(&buf); err != nil {
		t.Fatalf("serialize (jobs=%d): %v", jobs, err)
	}
	return buf.Bytes(), rep, sess
}

// TestSessionMatchesDirectPipeline is the API-redesign contract: the
// staged Session (open → profile → optimize → write) emits a binary
// byte-identical to the hand-assembled core driver path the CLIs used
// before the bolt package existed.
func TestSessionMatchesDirectPipeline(t *testing.T) {
	f := buildTiny(t)
	fd := record(t, f)
	cx := context.Background()

	// Old driver path, assembled directly from core primitives.
	opts := core.DefaultOptions()
	ctx, err := core.NewContext(cx, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.ApplyProfile(cx, fd); err != nil {
		t.Fatal(err)
	}
	if err := core.NewPassManager(opts.Jobs).Run(cx, ctx, passes.BuildPipeline(opts)); err != nil {
		t.Fatal(err)
	}
	res, err := ctx.Rewrite(cx)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := res.File.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	// New API path over the same input and profile.
	viaAPI, rep, _ := optimizeViaSession(t, f, fd, 0)
	if !bytes.Equal(direct, viaAPI) {
		t.Fatalf("bolt API output differs from the direct core pipeline (%d vs %d bytes)",
			len(viaAPI), len(direct))
	}
	if rep.MovedFuncs != res.MovedFuncs || rep.FoldedFuncs != res.FoldedFuncs ||
		rep.SplitFuncs != res.SplitFuncs || rep.HotTextSize != res.HotTextSize {
		t.Errorf("report disagrees with rewrite result: %+v vs %+v", rep, res)
	}
	if !reflect.DeepEqual(rep.Metrics.Counters, ctx.Stats) {
		t.Errorf("report stats diverge from direct pipeline stats")
	}

	// And the output still computes the same checksum as the input.
	want := runVM(t, f)
	out, err := elfx.Read(viaAPI)
	if err != nil {
		t.Fatal(err)
	}
	if got := runVM(t, out); got != want {
		t.Fatalf("semantic change through the bolt API: got %d want %d", got, want)
	}
}

// acrossJobs optimizes f with fd at jobs 1, 2 and 8 and fails unless the
// output bytes and the whole metrics snapshot equal jobs=1's, bit for
// bit: counters, gauges and histograms, float sums and worst observations
// included, so a float total accumulated in schedule order shows here
// even where every counter agrees. It returns the jobs=1 report.
func acrossJobs(t *testing.T, what string, f *elfx.File, fd *profile.Fdata, opts ...bolt.Option) *bolt.Report {
	t.Helper()
	serial, serialRep, _ := optimizeViaSession(t, f, fd, 1, opts...)
	for _, jobs := range []int{2, 8} {
		out, rep, _ := optimizeViaSession(t, f, fd, jobs, opts...)
		if !bytes.Equal(serial, out) {
			t.Errorf("%s jobs=%d: emitted binary differs from jobs=1 (%d vs %d bytes)",
				what, jobs, len(out), len(serial))
		}
		if !reflect.DeepEqual(serialRep.Metrics, rep.Metrics) {
			t.Errorf("%s jobs=%d: metrics diverge from jobs=1:\n  jobs=1: %+v\n  jobs=%d: %+v",
				what, jobs, *serialRep.Metrics, jobs, *rep.Metrics)
		}
	}
	return serialRep
}

// observed counts the observations of the named histogram in a report.
func observed(rep *bolt.Report, name string) int64 {
	for _, h := range rep.Metrics.Histograms {
		if h.Name == name {
			return h.Count
		}
	}
	return 0
}

// TestPipelineDeterministicAcrossJobs is the parallel pipeline's
// end-to-end contract, now proven through the public entry points: the
// emitted binary is byte-identical and the metrics snapshot exactly equal
// for any worker count, across all three stages — the staged loader
// (parallel disassembly+CFG), the function passes, and the concurrent
// emitter — and for LBR, non-LBR and stale profiles. Run under -race
// this also exercises every fan-out phase.
func TestPipelineDeterministicAcrossJobs(t *testing.T) {
	f := buildTiny(t)
	fd := record(t, f)
	acrossJobs(t, "LBR", f, fd)
	for _, jobs := range []int{2, 8} {
		_, rep, _ := optimizeViaSession(t, f, fd, jobs)
		if n := len(passes.BuildPipeline(rep.Options)); countGroup(rep.Phases, "pass") != n {
			t.Errorf("jobs=%d: %d pass timings recorded, pipeline has %d", jobs, countGroup(rep.Phases, "pass"), n)
		}
		if countGroup(rep.Phases, "load") != 4 || countGroup(rep.Phases, "emit") != 4 {
			t.Errorf("jobs=%d: want 4 load and 4 emit rows: %+v", jobs, rep.Phases)
		}
		// Loader and emitter phases must be instrumented and scheduled
		// on the pool, as must the profile-application and -inference
		// stages and the overlapped discovery scans.
		assertParallelPhase(t, jobs, rep.Phases, "load:discover")
		assertParallelPhase(t, jobs, rep.Phases, "load:disasm+cfg")
		assertParallelPhase(t, jobs, rep.Phases, "profile:apply")
		assertParallelPhase(t, jobs, rep.Phases, "profile:infer")
		assertParallelPhase(t, jobs, rep.Phases, "emit:functions")
		// The emitter's former serial back half is now three phases:
		// address assignment stays a serial prefix scan, while patching
		// and metadata rebuild fan out.
		assertSerialPhase(t, jobs, rep.Phases, "emit:layout")
		assertParallelPhase(t, jobs, rep.Phases, "emit:patch")
		assertParallelPhase(t, jobs, rep.Phases, "emit:metadata")
		// ICF's hashing runs as a parallel function pass; only the fold
		// remains a barrier.
		assertParallelPhase(t, jobs, rep.Phases, "icf-1-hash")
		assertParallelPhase(t, jobs, rep.Phases, "icf-2-hash")
		// So do inline-small's caller scan and plt.
		assertParallelPhase(t, jobs, rep.Phases, "inline-small-scan")
		assertParallelPhase(t, jobs, rep.Phases, "plt")
	}

	// With minimum-cost-flow inference forced on for the LBR profile,
	// the output must stay byte-identical across worker counts too, and
	// the inferred counts must be exactly consistent.
	mcfRep := acrossJobs(t, "infer-flow", f, fd, bolt.WithInferFlow(core.InferAlways))
	if mcfRep.Profile.InferredFuncs == 0 || mcfRep.Profile.FlowAccAfter != 1 {
		t.Errorf("InferAlways: %d functions inferred, flow accuracy %v",
			mcfRep.Profile.InferredFuncs, mcfRep.Profile.FlowAccAfter)
	}

	// A non-LBR profile goes through sample normalisation and one solver
	// arena per worker, reused from function to function: which functions
	// share an arena depends on the schedule, the bytes must not.
	smpRep := acrossJobs(t, "non-LBR", f, recordMode(t, f, sampledMode))
	if smpRep.Profile.InferredFuncs == 0 || smpRep.Profile.FlowAccAfter != 1 {
		t.Errorf("non-LBR profile: %d functions inferred, flow accuracy %v",
			smpRep.Profile.InferredFuncs, smpRep.Profile.FlowAccAfter)
	}
	if observed(smpRep, "flow-accuracy") == 0 {
		t.Error("non-LBR profile: no flow-accuracy observations to compare")
	}

	// A profile recorded with CFG shapes on v1 and applied to a v2 whose
	// function entries moved goes through stale matching, whose
	// per-function match quality is a float histogram of its own.
	vf, vfd := staleInput(t, workload.Tiny(), bench.CfgBaseline, perf.DefaultMode(), 3)
	if observed(acrossJobs(t, "stale", vf, vfd), "stale-match-quality") == 0 {
		t.Error("stale profile: no stale-match-quality observations to compare")
	}

	// A non-LBR profile is inferred by default, and the profile:infer row
	// carries the stat delta of what it counted, like every other row.
	mode := perf.DefaultMode()
	mode.LBR = false
	samples, _, err := perf.RecordFile(f, mode, 0)
	if err != nil {
		t.Fatalf("record non-LBR: %v", err)
	}
	_, rep, _ := optimizeViaSession(t, f, samples, 2)
	var text bytes.Buffer
	rep.WriteTimings(&text)
	for _, pt := range rep.Phases {
		if pt.Name != "profile:infer" {
			continue
		}
		if d := pt.StatDelta["profile-inferred-funcs"]; d == 0 || d != int64(rep.Profile.InferredFuncs) {
			t.Errorf("profile:infer stat delta %v, want profile-inferred-funcs=%d", pt.StatDelta, rep.Profile.InferredFuncs)
		}
		if want := fmt.Sprintf("profile-inferred-funcs=+%d", rep.Profile.InferredFuncs); !strings.Contains(text.String(), want) {
			t.Errorf("-time-passes report missing %q:\n%s", want, text.String())
		}
	}
}

// countGroup counts the timing rows of one pipeline stage.
func countGroup(timings []core.PassTiming, group string) int {
	n := 0
	for _, pt := range timings {
		if pt.Group == group {
			n++
		}
	}
	return n
}

// assertParallelPhase checks that the named phase was recorded and fanned
// out over more than one worker.
func assertParallelPhase(t *testing.T, jobs int, timings []core.PassTiming, name string) {
	t.Helper()
	for _, pt := range timings {
		if pt.Name != name {
			continue
		}
		if !pt.Parallel || pt.Jobs < 2 {
			t.Errorf("jobs=%d: phase %s not parallel: %+v", jobs, name, pt)
		}
		return
	}
	t.Errorf("jobs=%d: phase %s missing from timings", jobs, name)
}

// assertSerialPhase checks that the named phase was recorded and stayed
// a serial barrier regardless of the worker count.
func assertSerialPhase(t *testing.T, jobs int, timings []core.PassTiming, name string) {
	t.Helper()
	for _, pt := range timings {
		if pt.Name != name {
			continue
		}
		if pt.Parallel || pt.Jobs != 1 {
			t.Errorf("jobs=%d: phase %s not serial: %+v", jobs, name, pt)
		}
		return
	}
	t.Errorf("jobs=%d: phase %s missing from timings", jobs, name)
}

// TestOptimizeCancellation cancels Optimize before and during the
// pipeline. Under -race the concurrent variant also proves the fan-out
// phases shut down cleanly when the context dies mid-flight.
func TestOptimizeCancellation(t *testing.T) {
	f := buildTiny(t)
	fd := record(t, f)

	// Pre-cancelled context: every stage fails fast with the context
	// error and produces no output.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	sess, err := bolt.OpenELF(f, bolt.WithJobs(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.LoadProfile(cancelled, bolt.Fdata(fd)); !errors.Is(err, context.Canceled) {
		t.Fatalf("LoadProfile under cancelled context: %v", err)
	}
	if _, err := sess.Optimize(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Optimize under cancelled context: %v", err)
	}
	if sess.Output() != nil {
		t.Fatal("cancelled Optimize produced output")
	}

	// Mid-pipeline: cancel from a second goroutine while the pipeline
	// runs. The timer races the (fast) pipeline, so both outcomes are
	// legal; what must hold is that a cancelled run reports
	// context.Canceled, yields no output, and poisons the session.
	for _, delay := range []time.Duration{50 * time.Microsecond, 500 * time.Microsecond, 5 * time.Millisecond} {
		cx, cancelMid := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancelMid()
		}()
		s, err := bolt.OpenELF(f, bolt.WithJobs(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadProfile(context.Background(), bolt.Fdata(fd)); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Optimize(cx)
		switch {
		case err == nil:
			if rep == nil || s.Output() == nil {
				t.Fatalf("delay=%v: successful Optimize without report/output", delay)
			}
		case errors.Is(err, context.Canceled):
			if s.Output() != nil {
				t.Fatalf("delay=%v: cancelled Optimize left output", delay)
			}
			if _, err := s.Optimize(context.Background()); err == nil {
				t.Fatalf("delay=%v: cancelled session allowed a re-run", delay)
			}
		default:
			t.Fatalf("delay=%v: unexpected error %v", delay, err)
		}
		cancelMid()
	}
}

// TestStageOrdering pins the one-shot contracts documented in the
// package comment.
func TestStageOrdering(t *testing.T) {
	f := buildTiny(t)
	fd := record(t, f)
	cx := context.Background()

	sess, err := bolt.OpenELF(f)
	if err != nil {
		t.Fatal(err)
	}
	// Report-only accessors before Analyze must fail, not panic.
	if _, err := sess.Stats(); err == nil {
		t.Error("Stats before Analyze succeeded")
	}
	if err := sess.WriteFile(t.TempDir() + "/x"); err == nil {
		t.Error("WriteFile before Optimize succeeded")
	}
	if err := sess.LoadProfile(cx, bolt.Fdata(fd)); err != nil {
		t.Fatal(err)
	}
	// Second LoadProfile: one-shot.
	if err := sess.LoadProfile(cx, bolt.Fdata(fd)); err == nil {
		t.Error("second LoadProfile succeeded")
	}
	if _, err := sess.Optimize(cx); err != nil {
		t.Fatal(err)
	}
	// LoadProfile after the pipeline ran: stage violation.
	if err := sess.LoadProfile(cx, bolt.Fdata(fd)); err == nil {
		t.Error("LoadProfile after Optimize succeeded")
	}
	// Second Optimize: one-shot.
	if _, err := sess.Optimize(cx); err == nil {
		t.Error("second Optimize succeeded")
	}
	// Analyze stays idempotent and the accessors work post-Optimize.
	if err := sess.Analyze(cx); err != nil {
		t.Errorf("post-Optimize Analyze: %v", err)
	}
	if st, err := sess.Stats(); err != nil || len(st) == 0 {
		t.Errorf("post-Optimize Stats: %v (%d entries)", err, len(st))
	}
}

// TestMergedShardSource checks that LoadProfile with several sources
// behaves like profile.Merge over the shards.
func TestMergedShardSource(t *testing.T) {
	f := buildTiny(t)
	fd := record(t, f)
	cx := context.Background()

	merged, err := bolt.MergeShards(bolt.Fdata(fd), bolt.Fdata(fd)).Load(cx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.TotalBranchCount(), 2*fd.TotalBranchCount(); got != want {
		t.Fatalf("merged total %d, want doubled %d", got, want)
	}

	sess, err := bolt.OpenELF(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.LoadProfile(cx, bolt.Fdata(fd), bolt.Fdata(fd)); err != nil {
		t.Fatal(err)
	}
	if got := sess.Profile().TotalBranchCount(); got != merged.TotalBranchCount() {
		t.Fatalf("LoadProfile(multi) total %d, want %d", got, merged.TotalBranchCount())
	}
}

// TestZeroOptionsNoFootgun: the historical `core.Options{}` zero value
// now means "defaults", so an analysis-only context gets stale matching
// and the full pass set instead of silently disabling everything.
func TestZeroOptionsNoFootgun(t *testing.T) {
	if got := (core.Options{}).Normalized(); !reflect.DeepEqual(got, core.DefaultOptions()) {
		t.Fatalf("Options{}.Normalized() = %+v, want DefaultOptions", got)
	}
	// The operational knobs (Jobs, DynoStats) don't count as
	// configuration: Options{Jobs: n} means "defaults at n workers" for
	// every n, with the knobs preserved — no discontinuity at n=0.
	for _, jobs := range []int{0, 1, 4} {
		got := (core.Options{Jobs: jobs, DynoStats: true}).Normalized()
		want := core.DefaultOptions()
		want.Jobs, want.DynoStats = jobs, true
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Options{Jobs:%d}.Normalized() = %+v, want defaults with knobs kept", jobs, got)
		}
	}
	// An explicit pass-selection field marks the Options as configured.
	explicit := core.Options{ICF: true, Jobs: 2}
	if got := explicit.Normalized(); !reflect.DeepEqual(got, explicit) {
		t.Fatalf("configured Options were rewritten: %+v", got)
	}
	f := buildTiny(t)
	ctx, err := core.NewContext(context.Background(), f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ctx.Opts.StaleMatching || !ctx.Opts.ICF {
		t.Fatalf("zero Options reached the pipeline un-normalized: %+v", ctx.Opts)
	}
	if len(passes.BuildPipeline(core.Options{})) != len(passes.BuildPipeline(core.DefaultOptions())) {
		t.Fatal("BuildPipeline treats the zero value as all-off")
	}
}

// TestVerifyChecksTheBytesWritten: WriteTo, WriteFile and VerifyOutput
// share one serialization of the rewrite result, so the gate's verdict
// is about the very bytes that reach the output path. The output image
// is corrupted after the first write; a gate that re-serialized would
// see the corruption (sym-entry), a later write would carry it.
func TestVerifyChecksTheBytesWritten(t *testing.T) {
	f := buildTiny(t)
	written, _, sess := optimizeViaSession(t, f, record(t, f), 1)
	sess.Output().Entry = 1

	res, err := sess.VerifyOutput()
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range res.Findings {
		t.Errorf("VerifyOutput judged other bytes than WriteTo wrote: %v", fi)
	}
	var again bytes.Buffer
	if _, err := sess.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), written) {
		t.Error("a second WriteTo wrote other bytes than the first")
	}
	path := filepath.Join(t.TempDir(), "out.bolt")
	if err := sess.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, written) {
		t.Errorf("WriteFile wrote other bytes than WriteTo (err %v)", err)
	}
}
