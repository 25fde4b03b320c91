package bench

import (
	"reflect"
	"strings"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/core"
	"gobolt/internal/ld"
	"gobolt/internal/perf"
	"gobolt/internal/profile"
	"gobolt/internal/uarch"
	"gobolt/internal/workload"
)

func TestBuildConfigs(t *testing.T) {
	lab := NewLab(1)
	for _, cfg := range []BuildConfig{CfgBaseline, CfgLTO, CfgPGO, CfgPGOLTO, CfgHFSort} {
		s, err := lab.Subject(workload.Tiny(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		m, err := s.Baseline()
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
	mode := perf.DefaultMode()
	mode.Period = 512
	lab := NewLab(1)
	var want uint64
	for i, cfg := range []BuildConfig{CfgBaseline, CfgLTO, CfgPGOLTO, CfgHFSort} {
		s, err := lab.Subject(workload.Tiny(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		m, bolted, err := s.bolted(mode, core.DefaultOptions(), false)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if i == 0 {
			want = m.Checksum
		}
		if m.Checksum != want || bolted.Checksum != want {
			t.Fatalf("%s: checksum %d, BOLTed %d, want %d", cfg.Name, m.Checksum, bolted.Checksum, want)
		}
	}
}

// TestLabBuildsOnce: a lab builds each (spec, BuildConfig) once, records
// each subject's profile once per mode and measures each baseline once.
// The PGO and HFSort builds take their train profile from the plain build
// of the same LTO setting, so they add no subject and no recording. An
// HFSort build requested first registers that plain build from its own
// compile, and a later request for it builds nothing.
func TestLabBuildsOnce(t *testing.T) {
	lab := NewLab(1)
	get := func(cfg BuildConfig) *Subject {
		s, err := lab.Subject(workload.Tiny(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		return s
	}
	hfs := get(CfgHFSort)
	if len(lab.subjects) != 2 {
		t.Fatalf("lab holds %d subjects after an HFSort build, want 2", len(lab.subjects))
	}
	plain := get(CfgBaseline)
	if len(lab.subjects) != 2 || len(plain.profiles) != 1 {
		t.Fatalf("after the plain request: %d subjects, %d train profiles; want 2, 1",
			len(lab.subjects), len(plain.profiles))
	}
	pgo, pgolto, lto := get(CfgPGO), get(CfgPGOLTO), get(CfgLTO)
	if len(lab.subjects) != 5 {
		t.Fatalf("lab holds %d subjects after five configurations", len(lab.subjects))
	}
	if get(CfgPGO) != pgo || get(CfgHFSort) != hfs || get(CfgPGOLTO) != pgolto || get(CfgBaseline) != plain {
		t.Fatal("a second request built a subject again")
	}
	if len(plain.profiles) != 1 || len(lto.profiles) != 1 || len(pgo.profiles) != 0 {
		t.Fatalf("train profiles recorded: plain %d, LTO %d, PGO %d; want 1, 1, 0",
			len(plain.profiles), len(lto.profiles), len(pgo.profiles))
	}
	fd, err := plain.Profile(perf.DefaultMode())
	if err != nil {
		t.Fatal(err)
	}
	if fd != plain.profiles[perf.DefaultMode()] || len(plain.profiles) != 1 {
		t.Fatal("the train profile was recorded again")
	}
	shaped, err := plain.shapedProfile(perf.DefaultMode())
	if err != nil {
		t.Fatal(err)
	}
	if len(shaped.Shapes) == 0 || fd.Shapes != nil {
		t.Fatalf("shaped profile carries %d shapes, the shared one %d", len(shaped.Shapes), len(fd.Shapes))
	}
	b1, err := plain.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if b2, _ := plain.Baseline(); b2 != b1 {
		t.Fatal("the baseline was measured again")
	}
}

// TestCompilerExperimentRepeats runs Figure 7's spine twice on one lab:
// the second run gives the first run's rows, and evaluating the shared
// builds on other inputs leaves each computing what a fresh build does.
func TestCompilerExperimentRepeats(t *testing.T) {
	lab := NewLab(1)
	first, _, err := compilerExperiment(workload.Tiny(), true, lab)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := compilerExperiment(workload.Tiny(), true, lab)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("second run on the same lab gave\n%+v\nthe first\n%+v", second, first)
	}
	for key, s := range lab.subjects {
		fresh, err := NewLab(1).Subject(key.spec, key.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Baseline()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Measure(s.File, uarch.DefaultConfig(), false)
		if err != nil {
			t.Fatal(err)
		}
		if got.Checksum != want.Checksum {
			t.Errorf("%s: the shared build computes %#x, a fresh one %#x", key.cfg.Name, got.Checksum, want.Checksum)
		}
	}
}

func TestSetInputChangesBehaviour(t *testing.T) {
	s, err := NewLab(1).Subject(workload.Tiny(), CfgBaseline)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Measure(s.File, uarch.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	f, err := withInput(s.File, 999)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Measure(f, uarch.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Checksum == m2.Checksum {
		t.Fatal("input swap did not change behaviour")
	}
	if m3, err := Measure(s.File, uarch.DefaultConfig(), false); err != nil || m3.Checksum != m1.Checksum {
		t.Fatalf("input swap changed the original binary (%v)", err)
	}
}

// TestSpineRejectsChecksumMismatch: every figure measures its derived
// binaries through measureSame, so one that computes a different result
// than its baseline must fail the experiment rather than be reported.
func TestSpineRejectsChecksumMismatch(t *testing.T) {
	mode := perf.DefaultMode()
	mode.Period = 512
	s, err := NewLab(1).Subject(workload.Tiny(), CfgBaseline)
	if err != nil {
		t.Fatal(err)
	}
	before, _, err := s.bolted(mode, core.DefaultOptions(), false)
	if err != nil {
		t.Fatalf("faithful BOLT rejected: %v", err)
	}

	// The same binary fed other input data stands in for a miscompile.
	f, err := withInput(s.File, 999)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := measureSame(f, before, false); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("measureSame accepted a binary with a different result: %v", err)
	}
	bad := &Subject{Result: &ld.Result{File: f}, base: before, profiles: map[perf.Mode]*profile.Fdata{}}
	if _, _, err := bad.bolted(mode, core.DefaultOptions(), false); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("bolted accepted a BOLTed binary with a different result: %v", err)
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
