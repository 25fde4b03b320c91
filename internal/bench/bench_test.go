package bench

import (
	"strings"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/core"
	"gobolt/internal/ld"
	"gobolt/internal/perf"
	"gobolt/internal/uarch"
	"gobolt/internal/workload"
)

func TestBuildConfigs(t *testing.T) {
	spec := workload.Tiny()
	mode := perf.DefaultMode()
	mode.Period = 512
	for _, cfg := range []BuildConfig{CfgBaseline, CfgLTO, CfgPGO, CfgPGOLTO, CfgHFSort} {
		f, _, err := Build(spec, cfg, mode)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		m, err := Measure(f, uarch.DefaultConfig(), false)
		if err != nil {
			t.Fatalf("%s: measure: %v", cfg.Name, err)
		}
		if m.Metrics.Instructions == 0 {
			t.Fatalf("%s: no instructions simulated", cfg.Name)
		}
	}
}

// TestConfigsAgreeSemantically: every build configuration and BOLT on top
// of each must compute the same checksum.
func TestConfigsAgreeSemantically(t *testing.T) {
	spec := workload.Tiny()
	mode := perf.DefaultMode()
	mode.Period = 512
	var want uint64
	first := true
	for _, cfg := range []BuildConfig{CfgBaseline, CfgLTO, CfgPGOLTO, CfgHFSort} {
		f, _, err := Build(spec, cfg, mode)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		m, err := Measure(f, uarch.DefaultConfig(), false)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if first {
			want = m.Checksum
			first = false
		} else if m.Checksum != want {
			t.Fatalf("%s: checksum %d, want %d", cfg.Name, m.Checksum, want)
		}
		bolted, _, err := Bolt(f, mode, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: bolt: %v", cfg.Name, err)
		}
		mb, err := Measure(bolted, uarch.DefaultConfig(), false)
		if err != nil {
			t.Fatalf("%s+bolt: %v", cfg.Name, err)
		}
		if mb.Checksum != want {
			t.Fatalf("%s+bolt: checksum %d, want %d", cfg.Name, mb.Checksum, want)
		}
	}
}

func TestSetInputChangesBehaviour(t *testing.T) {
	spec := workload.Tiny()
	f, _, err := Build(spec, CfgBaseline, perf.DefaultMode())
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Measure(f, uarch.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetInput(f, 999); err != nil {
		t.Fatal(err)
	}
	m2, err := Measure(f, uarch.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Checksum == m2.Checksum {
		t.Fatal("input swap did not change behaviour")
	}
}

// TestSpineRejectsChecksumMismatch: every figure measures its derived
// binaries through measureSame, so one that computes a different result
// than its baseline must fail the experiment rather than be reported.
func TestSpineRejectsChecksumMismatch(t *testing.T) {
	mode := perf.DefaultMode()
	mode.Period = 512
	f, _, err := Build(workload.Tiny(), CfgBaseline, mode)
	if err != nil {
		t.Fatal(err)
	}
	before, err := Measure(f, uarch.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := boltMeasured(f, before, mode, core.DefaultOptions(), false); err != nil {
		t.Fatalf("faithful BOLT rejected: %v", err)
	}

	// The same binary fed other input data stands in for a miscompile.
	if err := SetInput(f, 999); err != nil {
		t.Fatal(err)
	}
	if _, err := measureSame(f, before, false); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("measureSame accepted a binary with a different result: %v", err)
	}
	if _, err := boltMeasured(f, before, mode, core.DefaultOptions(), false); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("boltMeasured accepted a BOLTed binary with a different result: %v", err)
	}
}

func TestSourceProfileMergesInlineCopies(t *testing.T) {
	// The Figure 2 mechanism: foo's branch statistics from bar and baz
	// call sites collapse into one ~50% entry.
	prog := workload.GenerateFigure2()
	objs, err := cc.Compile(prog, cc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lres, err := ld.Link(objs, ld.Options{EmitRelocs: true, ICF: true})
	if err != nil {
		t.Fatal(err)
	}
	mode := perf.DefaultMode()
	mode.Period = 512
	fd, _, err := perf.RecordFile(lres.File, mode, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SourceProfile(lres.File, fd)
	if err != nil {
		t.Fatal(err)
	}
	// foo's if lives at foo.mir:2. After merging across bar/baz call
	// sites, both successor sides must carry roughly equal counts.
	st := sp.Branch[cc.SrcKey{File: "foo.mir", Line: 2}]
	if st == nil || st.Total == 0 {
		t.Fatalf("no merged branch stat for foo.mir:2 (have %v)", sp.Branch)
	}
	if len(st.BySucc) < 2 {
		t.Fatalf("expected two successor sides, got %v", st.BySucc)
	}
	var counts []uint64
	for _, c := range st.BySucc {
		counts = append(counts, c)
	}
	hi, lo := counts[0], counts[1]
	if lo > hi {
		hi, lo = lo, hi
	}
	if float64(lo) < 0.5*float64(hi) {
		t.Errorf("expected ~50/50 merged distribution, got %v", st.BySucc)
	}
}
