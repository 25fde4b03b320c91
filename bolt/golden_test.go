package bolt_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"gobolt/bolt"
	"gobolt/internal/bench"
	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/passes"
	"gobolt/internal/perf"
	"gobolt/internal/profile"
	"gobolt/internal/workload"
)

// goldenRow is one pinned output: how its input is built and profiled,
// and the SHA-256 of what gobolt makes of it.
type goldenRow struct {
	name   string
	spec   func() workload.Spec
	cfg    bench.BuildConfig
	stale  int // >0: profile (with shapes) recorded on this spec, applied to EntryPadOps=stale
	sha256 string
}

// goldenOutputs pins the SHA-256 of the optimized binary for the three
// examples/ workload shapes, a PGO clang and an HFSort+LTO hhvm (the
// builds of the two examples deleted in PR 23), and for the clang and
// proxygen presets at scale 0.05. The hashes were recorded at PR 24,
// whose line-aware fragment placement moved every output (the set before
// it dated from PR 12 and PR 22), so the table proves byte-identity
// against that commit and not only across -jobs values. A change that is
// meant to alter output bytes replaces the hash the failure message
// prints.
var goldenOutputs = []goldenRow{
	{"quickstart", workload.Tiny, bench.CfgBaseline, 0,
		"ba0a07f089799e7bba1bd23cd3cfc505e9080578c4753516fff6a188d37fdbea"},
	{"exceptions", func() workload.Spec {
		s := workload.Tiny()
		s.ThrowFrac, s.ColdProb = 0.9, 0.1
		return s
	}, bench.CfgBaseline, 0,
		"f1f68e7cc6be935f65a5724fbdc54289dbde2769c134fa92d38991706357a486"},
	{"continuous", workload.Tiny, bench.CfgBaseline, 3,
		"701a6b2f815b2d65ee4b08cae4c32e59876886173faf21077628e53a8be3ea8d"},
	{"compiler-pgo", func() workload.Spec { return scaled(workload.Clang()) }, bench.CfgPGO, 0,
		"edfd567f152b74f147e47fda063e14de49d63037d6c6acb85bbeb429c8dc8fa6"},
	{"datacenter", func() workload.Spec { return scaled(workload.HHVM()) }, bench.CfgHFSortLTO, 0,
		"4c1c227efb736ed775c99edf5d5bcf338b125f669bedaeeb0ed5ea9fbbd351ef"},
	{"clang", func() workload.Spec { return scaled(workload.Clang()) }, bench.CfgBaseline, 0,
		"e2cd9328c8e7fed8099be0861de2f1c5876134387cff0edc12afd998d2e4aa66"},
	{"proxygen", func() workload.Spec { return scaled(workload.Proxygen()) }, bench.CfgBaseline, 0,
		"1cd3927afae4165e8b504bb764b00a27cab1af020201dbee7856673bca778af8"},
}

// goldenSampled pins the non-LBR path — sample normalisation,
// minimum-cost-flow inference, the sample-derived call graph — which no
// row above reaches: the same row shape, the profile recorded as PC
// samples every 512 instructions (sampledMode). Hashes recorded at PR 22,
// which changed what a sample means, and again at PR 24 with the rest.
var goldenSampled = []goldenRow{
	{"clang-nolbr", func() workload.Spec { return scaled(workload.Clang()) }, bench.CfgBaseline, 0,
		"b01fb9b82f5d2e8c8f0279820108aa8960b72d1b0bd0a80d117427aa9aa38ca8"},
	{"continuous-nolbr", workload.Tiny, bench.CfgBaseline, 3,
		"6d0512ff782b6b33985321d707804929e8a617bec04e4dbb51cf024cc102bdef"},
}

var sampledMode = perf.Mode{Event: perf.EventCycles, Period: 512}

// scaled shrinks a preset to scale 0.05 the way boltbench -scale does.
func scaled(s workload.Spec) workload.Spec {
	s.Iterations = max(int(float64(s.Iterations)*0.05), 500)
	return s
}

// buildSorted builds a workload and puts its symbol table in address
// order: ld emits ICF-alias symbols in map order, so without this two
// links of the same objects are not the same input bytes.
func buildSorted(t *testing.T, spec workload.Spec, cfg bench.BuildConfig) *elfx.File {
	t.Helper()
	s, err := bench.NewLab(1).Subject(spec, cfg)
	if err != nil {
		t.Fatalf("build %s: %v", spec.Name, err)
	}
	f := s.File
	syms := f.Symbols
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].Value != syms[j].Value {
			return syms[i].Value < syms[j].Value
		}
		return syms[i].Name < syms[j].Name
	})
	return f
}

// TestGoldenOutputs asserts the recorded output hashes at jobs 1 and 4,
// and over the same runs that each pass is one row and earns its place.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and bolts nine workloads twice; skipped in -short")
	}
	reps := checkGolden(t, goldenOutputs, perf.DefaultMode())
	reps = append(reps, checkGolden(t, goldenSampled, sampledMode)...)
	t.Run("passes-once-and-act", func(t *testing.T) { checkPassesActOnce(t, reps) })
}

// idlePasses are the default pass rows allowed to change no counter on
// any golden row: inline-small-scan has no counter of its own.
var idlePasses = map[string]bool{"inline-small-scan": true}

// checkPassesActOnce holds that no phase name repeats within a run (a
// pass scheduled twice would show as one), and that every default pass
// row outside idlePasses changes at least one counter on some golden
// row — a pass that never acts is deleted or given work, not kept.
func checkPassesActOnce(t *testing.T, reps []*bolt.Report) {
	acted, twice := map[string]bool{}, map[string]bool{}
	for _, rep := range reps {
		seen := map[string]bool{}
		for _, pt := range rep.Phases {
			if seen[pt.Name] {
				twice[pt.Name] = true
			}
			seen[pt.Name] = true
			if pt.Group == "pass" && len(pt.StatDelta) > 0 {
				acted[pt.Name] = true
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(twice)) {
		t.Errorf("phase %q recorded twice in one run", name)
	}
	for _, name := range bolt.PipelineNames() {
		switch {
		case idlePasses[name] && acted[name]:
			t.Errorf("%s changed a counter; drop it from idlePasses", name)
		case !idlePasses[name] && !acted[name]:
			t.Errorf("%s changed no counter on any golden row", name)
		}
	}
}

// TestSecondRoundsIdle guards the deletion of Table 1's second ICF round
// (pass 7) and second peephole run (pass 10). On the datacenter input,
// where inline-small splices over a thousand call sites, the default
// pipeline is split where the two stood: ICF rerun after
// inline-small folds nothing, and peepholes rerun after reorder-bbs
// rewrites nothing. The one shape a second peephole run could still
// catch — a ret-only callee spliced into a `call; jmp` block, leaving a
// jump-only block — is built by no preset.
func TestSecondRoundsIdle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and bolts the hhvm preset")
	}
	i := slices.IndexFunc(goldenOutputs, func(g goldenRow) bool { return g.name == "datacenter" })
	g := goldenOutputs[i]
	f := buildSorted(t, g.spec(), g.cfg)
	cx := context.Background()
	opts := core.DefaultOptions()
	ctx, err := core.NewContext(cx, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.ApplyProfile(cx, record(t, f)); err != nil {
		t.Fatal(err)
	}
	pm := core.NewPassManager(opts.Jobs)
	run := func(ps ...core.Pass) {
		t.Helper()
		if err := pm.Run(cx, ctx, ps); err != nil {
			t.Fatal(err)
		}
	}
	// rerun runs ps and returns the counters with the given prefix that
	// moved.
	rerun := func(prefix string, ps ...core.Pass) map[string]int64 {
		t.Helper()
		before := maps.Clone(ctx.Stats)
		run(ps...)
		moved := map[string]int64{}
		for k, v := range ctx.Stats {
			if strings.HasPrefix(k, prefix) && v != before[k] {
				moved[k] = v - before[k]
			}
		}
		return moved
	}
	for _, p := range passes.BuildPipeline(opts) {
		run(p)
		switch p.Name() {
		case "inline-small":
			if ctx.Stats["inline-small"] < 1000 {
				t.Errorf("inline-small spliced %d sites, want over 1000: the guard lost its input", ctx.Stats["inline-small"])
			}
			if moved := rerun("icf-folded", core.ForEachFunction(passes.ICFHash{}), passes.ICF{}); len(moved) > 0 {
				t.Errorf("a second ICF round after %s acted: %v", p.Name(), moved)
			}
		case "reorder-bbs":
			if moved := rerun("peephole-", core.ForEachFunction(passes.Peepholes{})); len(moved) > 0 {
				t.Errorf("a second peephole run after %s acted: %v", p.Name(), moved)
			}
		}
	}
}

// staleInput builds spec, records a profile that carries its CFG shapes,
// and rebuilds spec with pad extra ops at every function entry: a v2
// binary and the v1 profile that is stale against it.
func staleInput(t *testing.T, spec workload.Spec, cfg bench.BuildConfig, mode perf.Mode, pad int) (*elfx.File, *profile.Fdata) {
	t.Helper()
	f := buildSorted(t, spec, cfg)
	fd := recordMode(t, f, mode)
	shapes, err := bolt.OpenELF(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := shapes.Analyze(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fd.Shapes, err = shapes.Shapes(); err != nil {
		t.Fatal(err)
	}
	spec.EntryPadOps = pad
	return buildSorted(t, spec, cfg), fd
}

// checkGolden optimizes each row at jobs 1 and 4, checks the output
// hash, and returns the runs' reports.
func checkGolden(t *testing.T, rows []goldenRow, mode perf.Mode) []*bolt.Report {
	var reps []*bolt.Report
	for _, g := range rows {
		t.Run(g.name, func(t *testing.T) {
			var f *elfx.File
			var fd *profile.Fdata
			if g.stale > 0 {
				f, fd = staleInput(t, g.spec(), g.cfg, mode, g.stale)
			} else {
				f = buildSorted(t, g.spec(), g.cfg)
				fd = recordMode(t, f, mode)
			}
			for _, jobs := range []int{1, 4} {
				out, rep, _ := optimizeViaSession(t, f, fd, jobs)
				reps = append(reps, rep)
				sum := sha256.Sum256(out)
				if got := hex.EncodeToString(sum[:]); got != g.sha256 {
					t.Errorf("jobs=%d: output sha256 %s, golden %s", jobs, got, g.sha256)
				}
			}
		})
	}
	return reps
}
