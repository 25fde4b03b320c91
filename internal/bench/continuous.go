package bench

import (
	"fmt"
	"strings"

	"gobolt/bolt"
	"gobolt/internal/bat"
	"gobolt/internal/elfx"
	"gobolt/internal/perf"
	"gobolt/internal/profile"
	"gobolt/internal/uarch"
	"gobolt/internal/workload"
)

// ContinuousResult carries the headline rates of the continuous-profiling
// experiment (tests assert on these; the report renders them).
type ContinuousResult struct {
	// TranslationSurvival is the fraction of branch counts sampled on the
	// BOLTed binary that survive BAT translation back to input
	// coordinates.
	TranslationSurvival float64
	// VsFresh compares the translated profile's total branch count to a
	// fresh profile recorded on the unoptimized binary.
	VsFresh float64
	// AppliedVsFresh compares the branch counts ApplyProfile actually
	// attaches (CFG edges + call records) from the translated profile
	// against the fresh profile.
	AppliedVsFresh float64
	// SpeedupFresh / SpeedupTranslated are round-1 (fresh profile) and
	// round-2 (translated profile) BOLT speedups over the baseline.
	SpeedupFresh, SpeedupTranslated float64
	// StaleRecovered is the branch count recovered by shape matching on
	// the new-release binary; StaleRecoveryRate is its share of the
	// counts that went through the matcher; StaleAppliedWithout is what
	// the classic drop-records pipeline manages on the same binary.
	StaleRecovered      int64
	StaleRecoveryRate   float64
	StaleAppliedWithout int64
	StaleSpeedup        float64
	StaleFuncsMatched   int64
}

// appliedCounts applies a profile to a fresh analysis of f and returns
// the branch counts that landed (edges+calls), plus the full stats map.
func appliedCounts(f *elfx.File, fd *profile.Fdata, opts ...bolt.Option) (int64, map[string]int64, error) {
	sess, err := analyze(f, fd, opts...)
	if err != nil {
		return 0, nil, err
	}
	st, err := sess.Stats()
	if err != nil {
		return 0, nil, err
	}
	return st["profile-edge-count"] + st["profile-call-count"] + st["profile-stale-count"], st, nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Continuous closes the §7.3 loop end to end and quantifies it:
//
//	build v1 -> profile -> BOLT (writes .bolt.bat)
//	  -> sample the *optimized* binary in "production"
//	  -> translate the profile through BAT back to v1 coordinates
//	  -> re-BOLT v1 with the translated profile
//
// and the stale half:
//
//	build v2 (a mutated release) -> apply v1's profile
//	  -> without shape matching the intra-function records drop
//	  -> with internal/stale they are re-anchored and recovered
func Continuous(l *Lab) (*ContinuousResult, string, error) {
	spec := workload.TAO()
	mode := perf.DefaultMode()
	res := &ContinuousResult{}
	var sb strings.Builder
	sb.WriteString("Continuous profiling (§7.3 'Beyond' + stale matching)\n")

	base, err := l.Subject(spec, CfgBaseline)
	if err != nil {
		return nil, "", err
	}
	fdFresh, err := base.shapedProfile(mode)
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(&sb, "  %s: fresh profile: %d branch records, total count %d, %d shapes\n",
		spec.Name, len(fdFresh.Branches), fdFresh.TotalBranchCount(), len(fdFresh.Shapes))

	// Round 1: optimize with the fresh profile; the output carries BAT.
	sess1, _, err := base.optimize(fdFresh)
	if err != nil {
		return nil, "", fmt.Errorf("round-1 bolt: %w", err)
	}
	opt1 := sess1.Output()

	// "Production" sampling on the optimized binary, then translation.
	fdOpt, _, err := perf.RecordFile(opt1, mode, 0)
	if err != nil {
		return nil, "", err
	}
	table, err := bat.FromFile(opt1)
	if err != nil {
		return nil, "", err
	}
	if table == nil {
		return nil, "", fmt.Errorf("continuous: optimized binary carries no %s section", bat.SectionName)
	}
	fdTrans, tstats := bat.TranslateProfile(fdOpt, opt1, table)
	res.TranslationSurvival = ratio(fdTrans.TotalBranchCount(), fdOpt.TotalBranchCount())
	res.VsFresh = ratio(fdTrans.TotalBranchCount(), fdFresh.TotalBranchCount())
	fmt.Fprintf(&sb, "  sampled on BOLTed binary: total count %d; BAT (%d funcs, %d ranges) translated %d, passthrough %d, dropped %d\n",
		fdOpt.TotalBranchCount(), len(table.Funcs), len(table.Ranges),
		tstats.TranslatedBranches, tstats.PassthroughCount, tstats.DroppedCount)
	fmt.Fprintf(&sb, "  translation survival: %.2f%% of sampled counts; %.2f%% of the fresh profile's total\n",
		100*res.TranslationSurvival, 100*res.VsFresh)

	// How much of each profile ApplyProfile actually attaches to v1.
	appliedFresh, _, err := appliedCounts(base.File, fdFresh)
	if err != nil {
		return nil, "", err
	}
	appliedTrans, _, err := appliedCounts(base.File, fdTrans)
	if err != nil {
		return nil, "", err
	}
	res.AppliedVsFresh = ratio(uint64(appliedTrans), uint64(appliedFresh))
	fmt.Fprintf(&sb, "  ApplyProfile attached: fresh %d vs translated %d counts (%.2f%% reproduced)\n",
		appliedFresh, appliedTrans, 100*res.AppliedVsFresh)

	// Round 2: re-optimize v1 with the translated profile and compare.
	sess2, _, err := base.optimize(fdTrans)
	if err != nil {
		return nil, "", fmt.Errorf("round-2 bolt: %w", err)
	}
	opt2 := sess2.Output()
	mBase, err := base.Baseline()
	if err != nil {
		return nil, "", err
	}
	m1, err := measureSame(opt1, mBase, false)
	if err != nil {
		return nil, "", fmt.Errorf("round 1: %w", err)
	}
	m2, err := measureSame(opt2, mBase, false)
	if err != nil {
		return nil, "", fmt.Errorf("round 2: %w", err)
	}
	res.SpeedupFresh = uarch.Speedup(mBase.Metrics, m1.Metrics)
	res.SpeedupTranslated = uarch.Speedup(mBase.Metrics, m2.Metrics)
	fmt.Fprintf(&sb, "  BOLT speedup over baseline: %.2f%% with fresh profile, %.2f%% with translated profile (results identical)\n",
		100*res.SpeedupFresh, 100*res.SpeedupTranslated)

	// Stale half: a "new release" whose entry blocks grew instrumentation
	// pads, shifting every downstream offset.
	spec2 := spec
	spec2.EntryPadOps = 3
	v2, err := l.Subject(spec2, CfgBaseline)
	if err != nil {
		return nil, "", err
	}
	appliedOff, stOff, err := appliedCounts(v2.File, fdFresh, bolt.WithStaleMatching(false))
	if err != nil {
		return nil, "", err
	}
	_, stOn, err := appliedCounts(v2.File, fdFresh)
	if err != nil {
		return nil, "", err
	}
	res.StaleAppliedWithout = appliedOff
	res.StaleRecovered = stOn["profile-stale-count"]
	res.StaleFuncsMatched = stOn["profile-stale-funcs"]
	staleTotal := stOn["profile-stale-count"] + stOn["profile-stale-drop-count"]
	if staleTotal > 0 {
		res.StaleRecoveryRate = float64(res.StaleRecovered) / float64(staleTotal)
	}
	fmt.Fprintf(&sb, "  stale release (v2, +%d entry pad ops): classic pipeline drops %d of the intra-function counts (edges applied: %d)\n",
		spec2.EntryPadOps, stOff["profile-drop-count"], stOff["profile-edge-count"])
	fmt.Fprintf(&sb, "  shape matching: %d funcs matched, %d counts recovered (%.2f%% of stale counts)\n",
		res.StaleFuncsMatched, res.StaleRecovered, 100*res.StaleRecoveryRate)

	// BOLT the new release with the stale profile.
	sess3, _, err := v2.optimize(fdFresh)
	if err != nil {
		return nil, "", fmt.Errorf("stale bolt: %w", err)
	}
	mV2, err := v2.Baseline()
	if err != nil {
		return nil, "", err
	}
	m3, err := measureSame(sess3.Output(), mV2, false)
	if err != nil {
		return nil, "", fmt.Errorf("stale-profile bolt: %w", err)
	}
	res.StaleSpeedup = uarch.Speedup(mV2.Metrics, m3.Metrics)
	fmt.Fprintf(&sb, "  BOLT v2 with the stale v1 profile: %.2f%% speedup over the v2 baseline\n",
		100*res.StaleSpeedup)
	return res, sb.String(), nil
}
