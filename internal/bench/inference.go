package bench

import (
	"fmt"
	"strings"

	"gobolt/bolt"
	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/perf"
	"gobolt/internal/profile"
	"gobolt/internal/workload"
)

// InferenceResult carries the headline numbers of the profile-inference
// experiment (tests assert on these; the report renders them).
type InferenceResult struct {
	// SampleAccProportional/SampleAccMCF score how well the dyno stats
	// reconstructed from a non-LBR sample profile match the LBR ground
	// truth (1.0 = identical branch behavior), under the legacy §5.1
	// proportional estimator versus minimum-cost-flow inference.
	SampleAccProportional, SampleAccMCF float64
	// SampleFlowBefore/SampleFlowAfter are the flow-equation consistency
	// of the sample profile before and after the MCF solve.
	SampleFlowBefore, SampleFlowAfter float64
	// AllConsistent is true when every inferred simple function's counts
	// satisfy the flow equations exactly (ProfileAcc == 1.0).
	AllConsistent bool
	// StaleAccPlain/StaleAccMCF score a stale v1 profile applied to a v2
	// release (shape matching on) against a fresh v2 LBR profile pushed
	// through the same pipeline — i.e. how much of what a fresh profile
	// would give the optimizer the stale path reproduces — without and
	// with the MCF consistency repair (-infer-flow=always).
	StaleAccPlain, StaleAccMCF float64
	// InferredFuncs is the function count the solver rebalanced on the
	// sample-profile run.
	InferredFuncs int
}

// analyzeDyno applies a profile to a fresh analysis of f and returns the
// pre-pipeline dyno stats plus the session (for accuracy accessors).
func analyzeDyno(f *elfx.File, fd *profile.Fdata, opts ...bolt.Option) (core.DynoStats, *bolt.Session, error) {
	sess, err := analyzeSession(f, fd, opts...)
	if err != nil {
		return core.DynoStats{}, nil, err
	}
	d, err := sess.DynoStats()
	if err != nil {
		return core.DynoStats{}, nil, err
	}
	return d, sess, nil
}

// dynoSimilarity scores how closely two dyno-stat vectors describe the
// same branch behavior, scale-free: each metric is normalized by its
// own vector's executed-instruction count (LBR counts are exact branch
// totals while PC samples are period-subsampled, so absolute counts
// live on different scales), then compared as min/max ratios averaged
// over the metrics present in either vector.
func dynoSimilarity(truth, got core.DynoStats) float64 {
	norm := func(d core.DynoStats) []float64 {
		base := float64(d.ExecutedInstructions)
		if base == 0 {
			base = 1
		}
		fields := []uint64{
			d.ExecutedBranches, d.TakenBranches, d.NonTakenCondBranches,
			d.TakenCondBranches, d.ExecutedForward, d.TakenForward,
			d.ExecutedBackward, d.TakenBackward, d.ExecutedUncond,
			d.FunctionCalls,
		}
		out := make([]float64, len(fields))
		for i, v := range fields {
			out[i] = float64(v) / base
		}
		return out
	}
	a, b := norm(truth), norm(got)
	sum, n := 0.0, 0
	for i := range a {
		if a[i] == 0 && b[i] == 0 {
			continue
		}
		lo, hi := a[i], b[i]
		if lo > hi {
			lo, hi = hi, lo
		}
		sum += lo / hi
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// checkConsistency verifies every inferred simple function's counts
// satisfy the flow equations exactly.
func checkConsistency(sess *bolt.Session) (bool, error) {
	funcs, err := sess.Functions()
	if err != nil {
		return false, err
	}
	for _, fn := range funcs {
		if fn.Simple && fn.Sampled && fn.ProfileAcc != 1.0 {
			return false, nil
		}
	}
	return true, nil
}

// Inference quantifies what replacing the §5.1 "non-ideal algorithm"
// with minimum-cost-flow inference buys:
//
//	record an LBR profile (ground truth) and a non-LBR sample profile
//	  -> reconstruct edge counts from the samples with the legacy
//	     proportional estimator and with the MCF solver
//	  -> score both reconstructions' dyno stats against the ground truth
//
// and the stale half:
//
//	apply the v1 LBR profile to a mutated v2 release (shape matching)
//	  -> score the re-anchored counts against a fresh v2 profile,
//	     without and with the MCF consistency repair (-infer-flow=always)
func Inference(scale Scale) (*InferenceResult, string, error) {
	spec := scale.apply(workload.TAO())
	lbrMode := perf.DefaultMode()
	sampMode := perf.Mode{LBR: false, Event: perf.EventCycles, Period: 512}
	res := &InferenceResult{}
	var sb strings.Builder
	sb.WriteString("Profile inference (§5.1: minimum cost flow vs the \"non-ideal algorithm\")\n")

	base, _, err := Build(spec, CfgBaseline, lbrMode)
	if err != nil {
		return nil, "", err
	}
	fdLBR, err := recordWithShapes(base, lbrMode)
	if err != nil {
		return nil, "", err
	}
	fdSamp, _, err := perf.RecordFile(base, sampMode, 0)
	if err != nil {
		return nil, "", err
	}
	truth, _, err := analyzeDyno(base, fdLBR)
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(&sb, "  %s: LBR ground truth %d branch records; sample profile %d PC samples\n",
		spec.Name, len(fdLBR.Branches), len(fdSamp.Samples))

	// Legacy proportional estimator (InferNever) vs the MCF solver.
	dProp, sessProp, err := analyzeDyno(base, fdSamp, bolt.WithInferFlow(core.InferNever))
	if err != nil {
		return nil, "", err
	}
	_, propAfter, err := sessProp.FlowAccuracy()
	if err != nil {
		return nil, "", err
	}
	dMCF, sessMCF, err := analyzeDyno(base, fdSamp)
	if err != nil {
		return nil, "", err
	}
	res.SampleAccProportional = dynoSimilarity(truth, dProp)
	res.SampleAccMCF = dynoSimilarity(truth, dMCF)
	res.SampleFlowBefore, res.SampleFlowAfter, err = sessMCF.FlowAccuracy()
	if err != nil {
		return nil, "", err
	}
	res.AllConsistent, err = checkConsistency(sessMCF)
	if err != nil {
		return nil, "", err
	}
	if st, err := sessMCF.Stats(); err == nil {
		res.InferredFuncs = int(st["profile-inferred-funcs"])
	}
	fmt.Fprintf(&sb, "  sample-only dyno accuracy vs LBR truth: proportional %.2f%%, min-cost flow %.2f%%\n",
		100*res.SampleAccProportional, 100*res.SampleAccMCF)
	fmt.Fprintf(&sb, "  flow-equation consistency: raw samples %.2f%% -> proportional %.2f%% -> MCF %.2f%% (%d funcs inferred, all consistent: %v)\n",
		100*res.SampleFlowBefore, 100*propAfter, 100*res.SampleFlowAfter,
		res.InferredFuncs, res.AllConsistent)

	// Stale half: v1's profile on a v2 release, with and without the
	// MCF consistency repair after shape matching.
	spec2 := spec
	spec2.EntryPadOps = 3
	v2, _, err := Build(spec2, CfgBaseline, lbrMode)
	if err != nil {
		return nil, "", err
	}
	fdV2, _, err := perf.RecordFile(v2, lbrMode, 0)
	if err != nil {
		return nil, "", err
	}
	// Each config is scored against the fresh v2 profile run through the
	// same pipeline: the question is how much of the fresh-profile input
	// the optimizer would have seen the stale path reproduces.
	for _, cfg := range []struct {
		opts []bolt.Option
		dst  *float64
	}{
		{nil, &res.StaleAccPlain},
		{[]bolt.Option{bolt.WithInferFlow(core.InferAlways)}, &res.StaleAccMCF},
	} {
		truth2, _, err := analyzeDyno(v2, fdV2, cfg.opts...)
		if err != nil {
			return nil, "", err
		}
		dStale, _, err := analyzeDyno(v2, fdLBR, cfg.opts...)
		if err != nil {
			return nil, "", err
		}
		*cfg.dst = dynoSimilarity(truth2, dStale)
	}
	fmt.Fprintf(&sb, "  stale v1 profile on v2 (+%d entry pad ops), dyno recovery vs a fresh v2 profile: matched %.2f%%, matched+MCF repair %.2f%%\n",
		spec2.EntryPadOps, 100*res.StaleAccPlain, 100*res.StaleAccMCF)
	return res, sb.String(), nil
}
