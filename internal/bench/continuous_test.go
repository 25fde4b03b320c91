package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gobolt/bolt"
	"gobolt/internal/bat"
	"gobolt/internal/elfx"
	"gobolt/internal/perf"
	"gobolt/internal/profile"
	"gobolt/internal/workload"
)

// buildTiny links the Tiny workload (optionally with version-skew pads)
// in a lab of its own.
func buildTiny(t *testing.T, pad int) *Subject {
	t.Helper()
	spec := workload.Tiny()
	spec.EntryPadOps = pad
	s, err := NewLab(1).Subject(spec, CfgBaseline)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// analyzeProfile applies fd to a fresh analysis of f through the bolt
// API (optionally with stale matching disabled) and returns the session
// for stats and function inspection.
func analyzeProfile(t *testing.T, f *elfx.File, fd *profile.Fdata, stale bool) *bolt.Session {
	t.Helper()
	sess, err := analyze(f, fd, bolt.WithStaleMatching(stale))
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func sessionStats(t *testing.T, sess *bolt.Session) map[string]int64 {
	t.Helper()
	st, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestContinuousBATRoundTrip drives the full optimize→sample→translate
// loop on the Tiny workload and checks the BAT layer invariants:
// deterministic double translation, cold-fragment coverage, and that the
// translated profile drives ApplyProfile (including flow repair on
// functions that were split in round 1).
func TestContinuousBATRoundTrip(t *testing.T) {
	cx := context.Background()
	mode := perf.DefaultMode()
	base := buildTiny(t, 0)
	fdFresh, err := base.shapedProfile(mode)
	if err != nil {
		t.Fatal(err)
	}
	sess1, _, err := base.optimize(fdFresh)
	if err != nil {
		t.Fatal(err)
	}
	opt := sess1.Output()

	table, err := bat.FromFile(opt)
	if err != nil {
		t.Fatal(err)
	}
	if table == nil {
		t.Fatalf("optimized binary carries no %s section", bat.SectionName)
	}

	// The loop re-disassembles gobolt's own output (vmrun -record embeds
	// shapes of whatever binary it runs, BOLTed or not). This must not
	// choke on gobolt-only constructs like a hot fragment's conditional
	// branch into its cold fragment.
	optSess, err := bolt.OpenELF(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := optSess.Analyze(cx); err != nil {
		t.Fatalf("re-disassembling the BOLTed binary: %v", err)
	}
	if shapes, err := optSess.Shapes(); err != nil || len(shapes) == 0 {
		t.Fatalf("no shapes derivable from the BOLTed binary (%v)", err)
	}

	// Cold fragments must be mapped and must translate into their parent
	// function's input coordinate space.
	coldRanges := 0
	for _, r := range table.Ranges {
		if !r.Cold || len(r.Entries) == 0 {
			continue
		}
		coldRanges++
		fn, off, ok := table.Translate(r.Start + uint64(r.Entries[0].OutOff))
		if !ok || strings.Contains(fn, ".cold") {
			t.Fatalf("cold range at %#x translated to (%q, %#x, %v)", r.Start, fn, off, ok)
		}
		if size, _ := table.FuncSize(fn); off >= size {
			t.Fatalf("cold range of %s translated past function end: %#x >= %#x", fn, off, size)
		}
	}
	if coldRanges == 0 {
		t.Fatal("no cold ranges in BAT table (split functions expected)")
	}

	// Sample the optimized binary and translate — twice, through the
	// BAT-auto-detecting profile source; the two outputs must serialize
	// byte-identically (determinism satellite).
	fdOpt, _, err := perf.RecordFile(opt, mode, 0)
	if err != nil {
		t.Fatal(err)
	}
	src1 := bolt.SampledOnELF(bolt.Fdata(fdOpt), opt)
	trans1, err := src1.Load(cx)
	if err != nil {
		t.Fatal(err)
	}
	if !src1.Result.Translated {
		t.Fatal("SampledOn did not auto-detect the BAT table")
	}
	trans2, err := bolt.SampledOnELF(bolt.Fdata(fdOpt), opt).Load(cx)
	if err != nil {
		t.Fatal(err)
	}
	var buf1, buf2 bytes.Buffer
	if err := trans1.Write(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := trans2.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("translating the same profile twice produced different bytes")
	}
	if src1.Result.Stats.DroppedCount > fdOpt.TotalBranchCount()/20 {
		t.Fatalf("translation dropped %d of %d counts", src1.Result.Stats.DroppedCount, fdOpt.TotalBranchCount())
	}

	// Apply the translated profile to a fresh analysis of the input
	// binary: counts must attach, and functions that were split in round
	// 1 (their profile partly collected in the cold section) must come
	// out of flow repair with consistent counts.
	sessT := analyzeProfile(t, base.File, trans1, true)
	stats := sessionStats(t, sessT)
	if stats["profile-edge-count"] == 0 || stats["profile-call-count"] == 0 {
		t.Fatalf("translated profile did not apply: %v", stats)
	}
	funcs1, err := sess1.Functions()
	if err != nil {
		t.Fatal(err)
	}
	splitSampled := 0
	for _, fn1 := range funcs1 {
		if !fn1.IsSplit() {
			continue
		}
		fn, err := sessT.Function(fn1.Name)
		if err != nil {
			t.Fatal(err)
		}
		if fn == nil || !fn.Sampled {
			continue
		}
		splitSampled++
		if fn.ProfileAcc < 0.5 {
			t.Errorf("split function %s: flow repair left accuracy %.2f", fn.Name, fn.ProfileAcc)
		}
	}
	if splitSampled == 0 {
		t.Fatal("no cold-split function received translated profile data")
	}
}

// TestStaleMatchingRecovers rebuilds the workload with padded prologues
// (a mutated release): without matching the intra-function records drop;
// with matching they recover onto real CFG edges.
func TestStaleMatchingRecovers(t *testing.T) {
	fd, err := buildTiny(t, 0).shapedProfile(perf.DefaultMode())
	if err != nil {
		t.Fatal(err)
	}

	v2f := buildTiny(t, 3).File
	// Stale matching off: the classic behaviour, intra-function counts die.
	offStats := sessionStats(t, analyzeProfile(t, v2f, fd, false))

	v2 := analyzeProfile(t, v2f, fd, true)
	onStats := sessionStats(t, v2)
	recovered := onStats["profile-stale-count"]
	if recovered == 0 {
		t.Fatalf("stale matching recovered nothing: %v", onStats)
	}
	if onStats["profile-stale-funcs"] == 0 {
		t.Fatal("no function was diagnosed stale")
	}
	// The classic pipeline must be visibly worse: everything the matcher
	// recovered was dropped (or worse, misattributed) before.
	if offStats["profile-edge-count"] >= onStats["profile-edge-count"]+recovered {
		t.Fatalf("stale matching did not add edge counts: off=%v on=%v", offStats, onStats)
	}
	// Recovered counts must have landed on actual edges of padded
	// functions.
	funcs, err := v2.Functions()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fn := range funcs {
		if !fn.Simple || !fn.Sampled {
			continue
		}
		for _, b := range fn.Blocks {
			for _, e := range b.Succs {
				if e.Count > 0 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no edge counts present after stale application")
	}
}

// TestContinuousExperiment runs the full §7.3 experiment at reduced scale
// and asserts the acceptance-level rates.
func TestContinuousExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("continuous experiment takes seconds; skipped in -short")
	}
	res, report, err := Continuous(NewLab(0.05))
	if err != nil {
		t.Fatal(err)
	}
	t.Log(report)
	if res.TranslationSurvival < 0.99 {
		t.Errorf("translation survival %.4f < 0.99", res.TranslationSurvival)
	}
	if res.VsFresh < 0.95 {
		t.Errorf("translated profile reproduces only %.4f of the fresh total (< 0.95)", res.VsFresh)
	}
	if res.AppliedVsFresh < 0.80 {
		t.Errorf("applied counts reproduce only %.4f of fresh (< 0.80)", res.AppliedVsFresh)
	}
	if res.SpeedupTranslated <= 0 {
		t.Errorf("re-optimizing with the translated profile gave no speedup: %.4f", res.SpeedupTranslated)
	}
	if res.StaleRecovered == 0 {
		t.Error("stale matching recovered no counts on the mutated binary")
	}
	if res.StaleRecoveryRate < 0.5 {
		t.Errorf("stale recovery rate %.4f < 0.5", res.StaleRecoveryRate)
	}
	if res.StaleSpeedup <= 0 {
		t.Errorf("stale-profile BOLT gave no speedup: %.4f", res.StaleSpeedup)
	}
}

// TestStaleMetricsPinned holds the stale path to the numbers it produced
// before stale.Match returned a slice: release v1 of the Tiny workload is
// profiled (with shapes), release v2 has three instructions added to
// every entry, and every profile-* counter plus the flow accuracy before
// and after inference of the v2 run must equal
// testdata/stale_metrics.json — for an LBR profile and for PC samples.
// The counters were recorded at ebf34c9.
func TestStaleMetricsPinned(t *testing.T) {
	data, err := os.ReadFile("testdata/stale_metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	type pinned struct {
		Counters                    map[string]int64
		FlowAccBefore, FlowAccAfter float64
	}
	var golden map[string]pinned
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	// ld emits ICF-alias symbols in map order; shapes are keyed by name.
	sorted := func(s *Subject) *Subject {
		sort.Slice(s.File.Symbols, func(i, j int) bool {
			a, b := s.File.Symbols[i], s.File.Symbols[j]
			if a.Value != b.Value {
				return a.Value < b.Value
			}
			return a.Name < b.Name
		})
		return s
	}
	for name, mode := range map[string]perf.Mode{
		"lbr":   perf.DefaultMode(),
		"nolbr": {Event: perf.EventCycles, Period: 512},
	} {
		fd, err := sorted(buildTiny(t, 0)).shapedProfile(mode)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := sorted(buildTiny(t, 3)).optimize(fd)
		if err != nil {
			t.Fatal(err)
		}
		got := pinned{Counters: map[string]int64{},
			FlowAccBefore: rep.Profile.FlowAccBefore, FlowAccAfter: rep.Profile.FlowAccAfter}
		for k, v := range rep.Metrics {
			if strings.HasPrefix(k, "profile-") {
				got.Counters[k] = v
			}
		}
		if got.Counters["profile-stale-funcs"] == 0 {
			t.Fatalf("%s: the stale path did not run: %+v", name, got)
		}
		if !reflect.DeepEqual(got, golden[name]) {
			out, _ := json.MarshalIndent(got, "", " ")
			t.Errorf("%s: profile metrics differ from the recorded ones; got\n%s", name, out)
		}
	}
}
