package bench

import (
	"fmt"
	"testing"

	"gobolt/bolt"
	"gobolt/internal/bat"
	"gobolt/internal/bincheck"
	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/perf"
	"gobolt/internal/workload"
)

// boltAndSerialize runs the full pipeline over a workload built in lab l
// and returns the serialized output image plus the run report.
func boltAndSerialize(t *testing.T, l *Lab, spec workload.Spec, cfg BuildConfig, opts ...bolt.Option) ([]byte, *bolt.Report) {
	t.Helper()
	s, err := l.Subject(spec, cfg)
	if err != nil {
		t.Fatalf("%s: build: %v", spec.Name, err)
	}
	fd, err := s.Profile(perf.DefaultMode())
	if err != nil {
		t.Fatalf("%s: record: %v", spec.Name, err)
	}
	sess, rep, err := s.optimize(fd, opts...)
	if err != nil {
		t.Fatalf("%s: bolt: %v", spec.Name, err)
	}
	data, err := sess.Output().Bytes()
	if err != nil {
		t.Fatalf("%s: serialize: %v", spec.Name, err)
	}
	return data, rep
}

// runMutation applies one corruption to a fresh parse of a clean output
// image and reports whether the checker produced the expected rule. The
// base bytes are not modified.
func runMutation(base []byte, m bincheck.Mutation) (bool, error) {
	f, err := elfx.Read(base)
	if err != nil {
		return false, err
	}
	if err := m.Apply(f); err != nil {
		return false, fmt.Errorf("apply: %w", err)
	}
	data, err := f.Bytes()
	if err != nil {
		return false, fmt.Errorf("serialize: %w", err)
	}
	v, err := bincheck.Check(data)
	if err != nil {
		// The corruption broke the image beyond parsing; that is also a
		// detection, but none of the matrix mutations should get here.
		return false, fmt.Errorf("check: %w", err)
	}
	for _, fi := range v.Findings {
		if fi.Rule == m.Rule {
			return true, nil
		}
	}
	return false, nil
}

// TestVerifierCatchesCorruption is the soundness half of the verifier's
// contract: for every corruption category the rule suite claims to
// cover, a targeted single-site mutation of a known-clean output must
// produce the expected finding. A verifier that silently stops looking
// fails here, not in production.
func TestVerifierCatchesCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("full build+bolt per mutation base; skipped in -short")
	}
	spec := workload.Tiny()
	spec.Name = "mutation-base"
	spec.ThrowFrac = 0.9 // exception paths everywhere: LSDAs to corrupt
	spec.ColdProb = 0.1  // splits: cold fragments and split CFI state
	base, _ := boltAndSerialize(t, NewLab(1), spec, CfgBaseline)

	clean, err := bincheck.Check(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Findings) > 0 {
		t.Fatalf("mutation base is not clean: %v", clean.Findings[0])
	}

	muts := bincheck.Mutations()
	if len(muts) < 8 {
		t.Fatalf("corruption matrix shrank to %d mutations; need at least 8", len(muts))
	}
	for _, m := range muts {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			caught, err := runMutation(base, m)
			if err != nil {
				t.Fatalf("mutation %s: %v", m.Name, err)
			}
			if !caught {
				t.Errorf("corruption %s was not caught by rule %s", m.Name, m.Rule)
			}
		})
	}
}

// TestVerifyCleanPipeline pins the completeness half: the pipeline's
// output for every example workload shape verifies with zero findings
// (not even warnings), at both serial and parallel emission. The four
// stress shapes are each angled at one rule family of internal/bincheck:
// exception-dense code (CFI/LSDA rules), PLT-heavy non-LTO code (stub
// fragments and cross-module calls), aggressive cold splitting (split
// CFI state and cold BAT ranges), and hostile symbol tables (ICF alias
// pile-ups); a -lite run checks the input's own frame descriptions.
func TestVerifyCleanPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and bolts ten workloads twice; skipped in -short")
	}
	stress := func(name string, seed uint64) workload.Spec {
		s := workload.Tiny()
		s.Name = name
		s.Seed = seed
		s.Modules = 4
		s.FuncsPerModule = 60
		s.SharedFuncs = 8
		s.Iterations = 500
		s.InputSize = 1 << 12
		return s
	}
	exc := stress("stress-exceptions", 0xE0C1)
	exc.ThrowFrac = 0.6
	exc.ColdProb = 0.05
	plt := stress("stress-plt-heavy", 0x9717)
	plt.SharedFuncs = 24
	plt.IndirectCallFrac = 0.35
	cold := stress("stress-cold-split", 0xC01D)
	cold.ColdProb = 0.2
	cold.ColdOpsMax = 80
	hostile := stress("stress-hostile-symbols", 0x5105)
	hostile.DupFamilies = 24
	hostile.DupSize = 6

	exceptions := workload.Tiny()
	exceptions.Name = "exceptions"
	exceptions.ThrowFrac = 0.9
	exceptions.ColdProb = 0.1
	continuous := workload.Tiny()
	continuous.Name = "continuous"
	continuous.EntryPadOps = 3 // the example's version-skew variant

	// -lite leaves every unsampled function, and the FDE internal/cc gave
	// it, where the input had them: the input's CFI is checked as-is.
	lite := core.DefaultOptions()
	lite.Lite = true

	shapes := []struct {
		name string
		spec workload.Spec
		cfg  BuildConfig
		opts []bolt.Option
	}{
		{"quickstart", workload.Tiny(), CfgBaseline, nil},
		{"exceptions", exceptions, CfgBaseline, nil},
		{"continuous", continuous, CfgBaseline, nil},
		{"compiler-pgo", Scale(0.05).apply(workload.Clang()), CfgPGO, nil},
		{"datacenter", Scale(0.05).apply(workload.HHVM()), CfgHFSortLTO, nil},
		{exc.Name, exc, CfgBaseline, nil},
		{plt.Name, plt, CfgBaseline, nil}, // non-LTO: keep the PLT alive
		{cold.Name, cold, CfgBaseline, nil},
		{hostile.Name, hostile, CfgLTO, nil}, // LTO feeds the ICF dedup
		{"lite", workload.Tiny(), CfgBaseline, []bolt.Option{bolt.WithOptions(lite)}},
	}
	lab := NewLab(1)
	for _, sh := range shapes {
		for _, jobs := range []int{1, 4} {
			data, _ := boltAndSerialize(t, lab, sh.spec, sh.cfg, append(sh.opts, bolt.WithJobs(jobs))...)
			res, err := bincheck.Check(data)
			if err != nil {
				t.Fatalf("%s jobs=%d: %v", sh.name, jobs, err)
			}
			for _, f := range res.Findings {
				t.Errorf("%s jobs=%d: %v", sh.name, jobs, f)
			}
			if res.Fragments == 0 || res.FDEs == 0 {
				t.Errorf("%s jobs=%d: verifier saw %d fragments, %d FDEs; discovery broke",
					sh.name, jobs, res.Fragments, res.FDEs)
			}
		}
	}
}

// TestColdSplitBATAnchors audits the fall-through-split anchors: when a
// hot block falls through into what became the cold fragment, the cold
// range must open with an anchor at output offset 0 so the very first
// sample on the fragment translates, and every cold-range translation
// must stay inside the original function body.
func TestColdSplitBATAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("full build+bolt; skipped in -short")
	}
	spec := workload.Tiny()
	spec.Name = "cold-anchors"
	spec.ColdProb = 0.2
	spec.ThrowFrac = 0.5
	data, rep := boltAndSerialize(t, NewLab(1), spec, CfgBaseline)
	if rep.SplitFuncs == 0 {
		t.Fatal("workload produced no split functions; the test exercises nothing")
	}

	res, err := bincheck.Check(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("verifier finding on split output: %v", f)
	}

	f, err := elfx.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	sec := f.Section(bat.SectionName)
	if sec == nil {
		t.Fatalf("no %s section", bat.SectionName)
	}
	tbl, err := bat.Parse(sec.Data)
	if err != nil {
		t.Fatal(err)
	}
	coldRanges := 0
	for _, r := range tbl.Ranges {
		if !r.Cold {
			continue
		}
		coldRanges++
		fi := tbl.Funcs[r.FuncIdx]
		if len(r.Entries) == 0 {
			t.Errorf("%s: cold range at %#x has no anchors", fi.Name, r.Start)
			continue
		}
		if r.Entries[0].OutOff != 0 {
			t.Errorf("%s: cold range at %#x opens with anchor at +%#x, not +0; the split fall-through entry cannot translate",
				fi.Name, r.Start, r.Entries[0].OutOff)
		}
		for _, e := range r.Entries {
			fn, off, ok := tbl.Translate(r.Start + uint64(e.OutOff))
			if !ok || fn != fi.Name {
				t.Errorf("%s: anchor at +%#x does not translate back to its function (got %q, ok=%v)",
					fi.Name, e.OutOff, fn, ok)
				continue
			}
			if off >= fi.InSize {
				t.Errorf("%s: anchor at +%#x translates to %#x outside the original body (size %#x)",
					fi.Name, e.OutOff, off, fi.InSize)
			}
		}
	}
	if coldRanges == 0 {
		t.Error("BAT carries no cold ranges despite split functions")
	}
}
