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
	// EdgeOverlapProportional/EdgeOverlapMCF are the share of the LBR
	// truth's edge-count mass on edges the reconstruction also executes
	// (see hotEdgeOverlap) — what block layout and splitting consume,
	// where the dyno mix above is a summary that ignores which blocks
	// were lost.
	EdgeOverlapProportional, EdgeOverlapMCF float64
	// Quad is the fresh / stale × LBR / non-LBR table on the clang
	// preset, in that order.
	Quad []QuadRow
}

// QuadRow is one cell of the profile-kind 2 × 2: the next release BOLTed
// with one kind of profile, measured against the un-BOLTed release.
type QuadRow struct {
	Profile string
	// CyclesRel is BOLTed cycles ÷ baseline cycles.
	CyclesRel float64
	// ColdInstShare is the share of executed instructions fetched from
	// .text.cold and ColdCrossings the hot↔cold transitions: how often
	// the split was wrong about what runs.
	ColdInstShare float64
	ColdCrossings uint64
}

// analyzeDyno applies a profile to a fresh analysis of f and returns the
// pre-pipeline dyno stats plus the session (for accuracy accessors).
func analyzeDyno(f *elfx.File, fd *profile.Fdata, opts ...bolt.Option) (core.DynoStats, *bolt.Session, error) {
	sess, err := analyze(f, fd, opts...)
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

// hotEdgeOverlap scores a reconstruction of a binary's edge counts
// against the truth's, both analyses of the same binary: the share of the
// truth's edge-count mass that lies on edges the reconstruction also
// counts as executed. That is the part of the real control flow layout
// gets to work with — reorder-bbs builds its graph from the non-zero
// edges, and a block none of them reaches is split away as cold — so
// unlike the dyno mix it moves with the end-to-end result.
func hotEdgeOverlap(truth, got *bolt.Session) (float64, error) {
	tf, err := truth.Functions()
	if err != nil {
		return 0, err
	}
	gf, err := got.Functions()
	if err != nil {
		return 0, err
	}
	if len(tf) != len(gf) {
		return 0, fmt.Errorf("bench: edge overlap across different binaries (%d vs %d functions)", len(tf), len(gf))
	}
	var total, shared uint64
	for i, fn := range tf {
		if !fn.Simple {
			continue
		}
		if len(gf[i].Blocks) != len(fn.Blocks) {
			return 0, fmt.Errorf("bench: edge overlap across different CFGs of %s", fn.Name)
		}
		for bi, b := range fn.Blocks {
			for k := range b.Succs {
				total += b.Succs[k].Count
				if gf[i].Blocks[bi].Succs[k].Count > 0 {
					shared += b.Succs[k].Count
				}
			}
		}
	}
	return ratio(shared, total), nil
}

// profileQuad splits "a stale non-LBR profile" into its two halves: the
// next release of the clang preset (three instructions added to every
// function entry) is BOLTed four times — with a profile recorded on
// itself or on the previous release, with LBR or with PC samples every
// 512 instructions — and each output measured against the un-BOLTed
// release, through measureSame like every figure here.
func profileQuad(l *Lab) ([]QuadRow, error) {
	next := workload.Clang()
	next.EntryPadOps = 3
	lbr := perf.DefaultMode()
	samples := perf.Mode{Event: perf.EventCycles, Period: 512}
	v1, err := l.Subject(workload.Clang(), CfgBaseline)
	if err != nil {
		return nil, err
	}
	v2, err := l.Subject(next, CfgBaseline)
	if err != nil {
		return nil, err
	}
	ref, err := v2.Baseline()
	if err != nil {
		return nil, err
	}
	var rows []QuadRow
	for _, c := range []struct {
		name string
		on   *Subject
		mode perf.Mode
	}{
		{"fresh LBR", v2, lbr},
		{"stale LBR", v1, lbr},
		{"fresh non-LBR", v2, samples},
		{"stale non-LBR", v1, samples},
	} {
		fd, err := c.on.shapedProfile(c.mode)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		sess, _, err := v2.optimize(fd)
		if err != nil {
			return nil, fmt.Errorf("%s: bolt: %w", c.name, err)
		}
		m, err := measureSame(sess.Output(), ref, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		rows = append(rows, QuadRow{
			Profile:       c.name,
			CyclesRel:     float64(m.Metrics.Cycles) / float64(ref.Metrics.Cycles),
			ColdInstShare: float64(m.ColdInsts) / float64(m.Metrics.Instructions),
			ColdCrossings: m.ColdCrossings,
		})
	}
	return rows, nil
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
func Inference(l *Lab) (*InferenceResult, string, error) {
	spec := workload.TAO()
	lbrMode := perf.DefaultMode()
	sampMode := perf.Mode{LBR: false, Event: perf.EventCycles, Period: 512}
	res := &InferenceResult{}
	var sb strings.Builder
	sb.WriteString("Profile inference (§5.1: minimum cost flow vs the \"non-ideal algorithm\")\n")

	base, err := l.Subject(spec, CfgBaseline)
	if err != nil {
		return nil, "", err
	}
	fdLBR, err := base.shapedProfile(lbrMode)
	if err != nil {
		return nil, "", err
	}
	fdSamp, err := base.Profile(sampMode)
	if err != nil {
		return nil, "", err
	}
	truth, sessTruth, err := analyzeDyno(base.File, fdLBR)
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(&sb, "  %s: LBR ground truth %d branch records; sample profile %d PC samples\n",
		spec.Name, len(fdLBR.Branches), len(fdSamp.Samples))

	// Legacy proportional estimator (InferNever) vs the MCF solver.
	dProp, sessProp, err := analyzeDyno(base.File, fdSamp, bolt.WithInferFlow(core.InferNever))
	if err != nil {
		return nil, "", err
	}
	_, propAfter, err := sessProp.FlowAccuracy()
	if err != nil {
		return nil, "", err
	}
	dMCF, sessMCF, err := analyzeDyno(base.File, fdSamp)
	if err != nil {
		return nil, "", err
	}
	res.SampleAccProportional = dynoSimilarity(truth, dProp)
	res.SampleAccMCF = dynoSimilarity(truth, dMCF)
	res.SampleFlowBefore, res.SampleFlowAfter, err = sessMCF.FlowAccuracy()
	if err != nil {
		return nil, "", err
	}
	if res.EdgeOverlapProportional, err = hotEdgeOverlap(sessTruth, sessProp); err != nil {
		return nil, "", err
	}
	if res.EdgeOverlapMCF, err = hotEdgeOverlap(sessTruth, sessMCF); err != nil {
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
	fmt.Fprintf(&sb, "  sample-only hot-edge overlap with LBR truth: proportional %.2f%%, min-cost flow %.2f%%\n",
		100*res.EdgeOverlapProportional, 100*res.EdgeOverlapMCF)
	fmt.Fprintf(&sb, "  flow-equation consistency: raw samples %.2f%% -> proportional %.2f%% -> MCF %.2f%% (%d funcs inferred, all consistent: %v)\n",
		100*res.SampleFlowBefore, 100*propAfter, 100*res.SampleFlowAfter,
		res.InferredFuncs, res.AllConsistent)

	// Stale half: v1's profile on a v2 release, with and without the
	// MCF consistency repair after shape matching.
	spec2 := spec
	spec2.EntryPadOps = 3
	v2, err := l.Subject(spec2, CfgBaseline)
	if err != nil {
		return nil, "", err
	}
	fdV2, err := v2.Profile(lbrMode)
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
		truth2, _, err := analyzeDyno(v2.File, fdV2, cfg.opts...)
		if err != nil {
			return nil, "", err
		}
		dStale, _, err := analyzeDyno(v2.File, fdLBR, cfg.opts...)
		if err != nil {
			return nil, "", err
		}
		*cfg.dst = dynoSimilarity(truth2, dStale)
	}
	fmt.Fprintf(&sb, "  stale v1 profile on v2 (+%d entry pad ops), dyno recovery vs a fresh v2 profile: matched %.2f%%, matched+MCF repair %.2f%%\n",
		spec2.EntryPadOps, 100*res.StaleAccPlain, 100*res.StaleAccMCF)

	if res.Quad, err = profileQuad(l); err != nil {
		return nil, "", err
	}
	sb.WriteString("  clang, next release (+3 entry pad ops) BOLTed per profile kind: cycles vs un-BOLTed, instructions run from .text.cold, hot<->cold transitions\n")
	for _, q := range res.Quad {
		fmt.Fprintf(&sb, "    %-14s %6.2f%%  %5.2f%%  %d\n", q.Profile, 100*q.CyclesRel, 100*q.ColdInstShare, q.ColdCrossings)
	}
	return res, sb.String(), nil
}
