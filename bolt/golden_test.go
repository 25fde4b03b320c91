package bolt_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"

	"gobolt/bolt"
	"gobolt/internal/bench"
	"gobolt/internal/elfx"
	"gobolt/internal/perf"
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
// proxygen presets at scale 0.05. The hashes were recorded on the commit before PR 12 (value
// CFI states, digest-keyed ICF, lazy address index), so the table proves
// byte-identity against that parent and not only across -jobs values. A
// change that is meant to alter output bytes replaces the hash the
// failure message prints.
var goldenOutputs = []goldenRow{
	{"quickstart", workload.Tiny, bench.CfgBaseline, 0,
		"136e3b94508941895026aef9ec7fed70735b1955c89f07ddc8df2e4ca3cc301e"},
	{"exceptions", func() workload.Spec {
		s := workload.Tiny()
		s.ThrowFrac, s.ColdProb = 0.9, 0.1
		return s
	}, bench.CfgBaseline, 0,
		"0b473fa7be0661dabc16b1c3f0fd370987108b753369881870133c60cb3387af"},
	{"continuous", workload.Tiny, bench.CfgBaseline, 3,
		"971fc8cb968016aaba22b430af3bd025ff3fbc950929638b61522895bde177b7"},
	{"compiler-pgo", func() workload.Spec { return scaled(workload.Clang()) }, bench.CfgPGO, 0,
		"99305e86902792f7be7371a1282d365c05dd72cc25571027bbd12c26f4f0a800"},
	{"datacenter", func() workload.Spec { return scaled(workload.HHVM()) }, bench.CfgHFSortLTO, 0,
		"378fc233fae43fbba05c53eff37ccbfc16fdccac87f5607c80269a47dd8c3c00"},
	{"clang", func() workload.Spec { return scaled(workload.Clang()) }, bench.CfgBaseline, 0,
		"b172187516a0fd81e739f765e9a7c1fe4ffdb40cfea6466c383c4a262c0444ca"},
	{"proxygen", func() workload.Spec { return scaled(workload.Proxygen()) }, bench.CfgBaseline, 0,
		"ad9332306afec24525a2c3dbda4c15dea8cdfb21e421661472800277f7517664"},
}

// goldenSampled pins the non-LBR path — sample normalisation,
// minimum-cost-flow inference, the sample-derived call graph — which no
// row above reaches: the same row shape, the profile recorded as PC
// samples every 512 instructions (sampledMode). Hashes recorded at PR 22,
// which changed what a sample means.
var goldenSampled = []goldenRow{
	{"clang-nolbr", func() workload.Spec { return scaled(workload.Clang()) }, bench.CfgBaseline, 0,
		"5da3e9893b920fe3aa3318942189ad2021c5617c805d27cddfbef8c5054f9507"},
	{"continuous-nolbr", workload.Tiny, bench.CfgBaseline, 3,
		"d0634e180190ced0045df31a5007971d339a130e9d24e2428ddade497f8d386f"},
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
	f, _, err := bench.Build(spec, cfg, perf.DefaultMode())
	if err != nil {
		t.Fatalf("build %s: %v", spec.Name, err)
	}
	syms := f.Symbols
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].Value != syms[j].Value {
			return syms[i].Value < syms[j].Value
		}
		return syms[i].Name < syms[j].Name
	})
	return f
}

// TestGoldenOutputs asserts the recorded output hashes at jobs 1 and 4.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and bolts nine workloads twice; skipped in -short")
	}
	checkGolden(t, goldenOutputs, perf.DefaultMode())
	checkGolden(t, goldenSampled, sampledMode)
}

func checkGolden(t *testing.T, rows []goldenRow, mode perf.Mode) {
	cx := context.Background()
	for _, g := range rows {
		t.Run(g.name, func(t *testing.T) {
			spec := g.spec()
			f := buildSorted(t, spec, g.cfg)
			fd := recordMode(t, f, mode)
			if g.stale > 0 {
				shapes, err := bolt.OpenELF(f)
				if err != nil {
					t.Fatal(err)
				}
				if err := shapes.Analyze(cx); err != nil {
					t.Fatal(err)
				}
				if fd.Shapes, err = shapes.Shapes(); err != nil {
					t.Fatal(err)
				}
				spec.EntryPadOps = g.stale
				f = buildSorted(t, spec, g.cfg)
			}
			for _, jobs := range []int{1, 4} {
				out, _, _ := optimizeViaSession(t, f, fd, jobs)
				sum := sha256.Sum256(out)
				if got := hex.EncodeToString(sum[:]); got != g.sha256 {
					t.Errorf("jobs=%d: output sha256 %s, golden %s", jobs, got, g.sha256)
				}
			}
		})
	}
}
