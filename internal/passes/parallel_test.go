package passes

import (
	"testing"

	"gobolt/internal/core"
)

// TestParallelPipelineSemantics re-runs the round-trip check with an
// explicitly parallel manager: the rewritten binary must still compute
// the same checksum. (The cross-jobs byte-identity contract,
// TestPipelineDeterministicAcrossJobs, lives in the bolt package and
// exercises this pipeline through the public entry points.)
func TestParallelPipelineSemantics(t *testing.T) {
	f, want := buildWork(t)
	fd := record(t, f, true)
	opts := core.DefaultOptions()
	opts.Jobs = 8
	res, ctx, err := optimize(f, fd, opts)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if got := run(t, res.File); got != want {
		t.Fatalf("semantic change under jobs=8: got %d want %d", got, want)
	}
	// The parallel schedule must still have exercised the function passes.
	for _, stat := range []string{"strip-rep-ret", "reorder-bbs-funcs", "split-functions"} {
		if ctx.Stats[stat] == 0 {
			t.Errorf("expected stat %q > 0 (stats: %v)", stat, ctx.Stats)
		}
	}
	// Every pipeline pass appears in the instrumentation, in order.
	pipeline := BuildPipeline(opts)
	var passTimings []core.PassTiming
	for _, pt := range ctx.Timings {
		if pt.Group == "pass" {
			passTimings = append(passTimings, pt)
		}
	}
	if len(passTimings) != len(pipeline) {
		t.Fatalf("timings cover %d passes, pipeline has %d", len(passTimings), len(pipeline))
	}
	for i, p := range pipeline {
		if passTimings[i].Name != p.Name() {
			t.Errorf("timing %d: got pass %q, want %q", i, passTimings[i].Name, p.Name())
		}
	}
}
