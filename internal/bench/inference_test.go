package bench

import (
	"testing"

	"gobolt/internal/core"
)

// TestDynoSimilarity sanity-checks the scale-free scoring function.
func TestDynoSimilarity(t *testing.T) {
	a := core.DynoStats{ExecutedInstructions: 1000, TakenBranches: 100, ExecutedUncond: 50}
	if got := dynoSimilarity(a, a); got != 1.0 {
		t.Errorf("self-similarity = %v, want 1.0", got)
	}
	// Uniform sub-sampling (everything /10) must score 1.0: only the
	// branch *mix* matters, not the sampling period.
	b := core.DynoStats{ExecutedInstructions: 100, TakenBranches: 10, ExecutedUncond: 5}
	if got := dynoSimilarity(a, b); got != 1.0 {
		t.Errorf("scaled similarity = %v, want 1.0", got)
	}
	// A distorted mix must score below a faithful one.
	c := core.DynoStats{ExecutedInstructions: 1000, TakenBranches: 300, ExecutedUncond: 10}
	if faithful, distorted := dynoSimilarity(a, b), dynoSimilarity(a, c); distorted >= faithful {
		t.Errorf("distorted mix scored %v >= faithful %v", distorted, faithful)
	}
}

// TestInferenceExperiment runs the §5.1 experiment at reduced scale and
// asserts the acceptance-level results: minimum-cost-flow inference
// recovers strictly more dyno-stat accuracy from sample-only profiles
// than the old proportional estimator, with exactly consistent counts,
// the MCF consistency repair does not degrade stale-profile recovery,
// and the fresh / stale × LBR / non-LBR table keeps its shape.
func TestInferenceExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("inference experiment takes seconds; skipped in -short")
	}
	res, report, err := Inference(NewLab(0.1))
	if err != nil {
		t.Fatal(err)
	}
	t.Log(report)
	if res.SampleAccMCF <= res.SampleAccProportional {
		t.Errorf("min-cost flow accuracy %.4f not strictly above proportional %.4f",
			res.SampleAccMCF, res.SampleAccProportional)
	}
	if res.EdgeOverlapMCF <= res.EdgeOverlapProportional {
		t.Errorf("min-cost flow hot-edge overlap %.4f not above proportional %.4f",
			res.EdgeOverlapMCF, res.EdgeOverlapProportional)
	}
	if res.SampleFlowAfter != 1.0 {
		t.Errorf("sample-profile flow accuracy after MCF = %.6f, want exactly 1.0", res.SampleFlowAfter)
	}
	if !res.AllConsistent {
		t.Error("some inferred simple function violates the flow equations")
	}
	if res.InferredFuncs == 0 {
		t.Error("solver inferred no functions")
	}
	if res.StaleAccMCF < res.StaleAccPlain {
		t.Errorf("MCF repair degraded stale recovery: %.4f < %.4f",
			res.StaleAccMCF, res.StaleAccPlain)
	}
	if res.StaleAccMCF < 0.9 {
		t.Errorf("stale+MCF recovery %.4f < 0.9", res.StaleAccMCF)
	}
	// The 2 × 2: staleness costs next to nothing with either kind of
	// profile, and PC samples keep most of what LBR wins (before samples
	// were normalised by block size they kept a sixth of it).
	if len(res.Quad) != 4 {
		t.Fatalf("2 x 2 has %d rows", len(res.Quad))
	}
	freshLBR, staleLBR, freshSamp, staleSamp := res.Quad[0], res.Quad[1], res.Quad[2], res.Quad[3]
	for _, q := range res.Quad {
		if q.CyclesRel >= 1 || q.ColdInstShare <= 0 || q.ColdCrossings == 0 {
			t.Errorf("%s: cycles %.4f of baseline, %.4f of instructions from .text.cold, %d crossings",
				q.Profile, q.CyclesRel, q.ColdInstShare, q.ColdCrossings)
		}
	}
	if d := staleLBR.CyclesRel - freshLBR.CyclesRel; d > 0.03 {
		t.Errorf("stale LBR keeps %.4f of cycles, fresh LBR %.4f", staleLBR.CyclesRel, freshLBR.CyclesRel)
	}
	if d := staleSamp.CyclesRel - freshSamp.CyclesRel; d > 0.03 {
		t.Errorf("stale non-LBR keeps %.4f of cycles, fresh non-LBR %.4f", staleSamp.CyclesRel, freshSamp.CyclesRel)
	}
	if lost := (freshSamp.CyclesRel - freshLBR.CyclesRel) / (1 - freshLBR.CyclesRel); lost > 0.5 {
		t.Errorf("a non-LBR profile loses %.0f%% of the LBR win (cycles %.4f vs %.4f of baseline)",
			100*lost, freshSamp.CyclesRel, freshLBR.CyclesRel)
	}
}
