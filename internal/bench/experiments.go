package bench

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"gobolt/bolt"
	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/hfsort"
	"gobolt/internal/layout"
	"gobolt/internal/perf"
	"gobolt/internal/uarch"
	"gobolt/internal/workload"
)

// Result is what an experiment hands the command line: the report text
// of its table or figure, plus any artifacts to write next to it (only
// fig9 has them: its heat maps).
type Result struct {
	Report string
	Blobs  []Blob
}

// Blob is one named artifact; Name is the file-name suffix boltbench
// appends to its -heat-out prefix.
type Blob struct {
	Name string
	Data string
}

// Experiment is one row of the paper's evaluation. Run reads its builds
// from the lab, which the experiments of one run share.
type Experiment struct {
	Name string
	Run  func(*Lab) (Result, error)
}

// Experiments is every experiment boltbench can run, in the order "all"
// runs them. boltbench's flag help, its "all" list and its dispatch are
// all read from here, so adding an experiment is adding a row.
var Experiments = []Experiment{
	{"fig5", rows(Fig5)},
	{"fig6", rows(Fig6)},
	{"fig7", rows(Fig7)},
	{"fig8", rows(Fig8)},
	{"fig9", Fig9},
	{"fig10", text(Fig10)},
	{"fig11", rows(Fig11)},
	{"table2", text(Table2)},
	{"events", rows(Events)},
	{"icf", rows(ICF)},
	{"fig2", text(Fig2Report)},
	{"continuous", rows(Continuous)},
	{"inference", rows(Inference)},
}

// rows adapts an experiment that also returns typed rows (for tests) to
// the table's shape.
func rows[T any](f func(*Lab) (T, string, error)) func(*Lab) (Result, error) {
	return func(l *Lab) (Result, error) {
		_, report, err := f(l)
		return Result{Report: report}, err
	}
}

// text adapts an experiment that returns only its report.
func text(f func(*Lab) (string, error)) func(*Lab) (Result, error) {
	return func(l *Lab) (Result, error) {
		report, err := f(l)
		return Result{Report: report}, err
	}
}

// withInput returns a copy of a built binary (baseline or BOLTed) whose
// input-data blob is the one seed generates, so the same code can be
// evaluated on a different input, like the paper's input1..3/clang-build
// runs. f is left as it is.
func withInput(f *elfx.File, seed uint64) (*elfx.File, error) {
	sym, ok := f.SymbolByName("input")
	if !ok {
		return nil, fmt.Errorf("bench: no input symbol")
	}
	sec := f.SectionFor(sym.Value)
	if sec == nil {
		return nil, fmt.Errorf("bench: input symbol not mapped")
	}
	out, data := *f, *sec
	data.Data = slices.Clone(sec.Data)
	copy(data.Data[sym.Value-sec.Addr:], workload.InputBytes(seed, int(sym.Size)))
	out.Sections = slices.Clone(f.Sections)
	out.Sections[slices.Index(f.Sections, sec)] = &data
	return &out, nil
}

// Fig5Row is one bar of Figure 5.
type Fig5Row struct {
	Workload string
	Speedup  float64
}

// Fig5 measures BOLT on top of the HFSort(+LTO for HHVM) baseline for the
// five data-center workloads.
func Fig5(l *Lab) ([]Fig5Row, string, error) {
	specs := []workload.Spec{
		workload.HHVM(), workload.TAO(), workload.Proxygen(),
		workload.Multifeed1(), workload.Multifeed2(),
	}
	var rows []Fig5Row
	var speeds []float64
	for _, spec := range specs {
		cfg := CfgHFSort
		if spec.Name == "hhvm" {
			cfg = CfgHFSortLTO // the paper builds HHVM with LTO too
		}
		mb, mo, err := boltDefault(l, spec, cfg, false)
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", spec.Name, err)
		}
		sp := uarch.Speedup(mb.Metrics, mo.Metrics)
		rows = append(rows, Fig5Row{Workload: spec.Name, Speedup: sp})
		speeds = append(speeds, sp)
	}
	rows = append(rows, Fig5Row{Workload: "GeoMean", Speedup: GeoMean(speeds)})

	var sb strings.Builder
	sb.WriteString("Figure 5: speedups from BOLT on data-center workloads (baseline: HFSort(+LTO))\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-12s %6.2f%%\n", r.Workload, 100*r.Speedup)
	}
	return rows, sb.String(), nil
}

// Fig6Row is one micro-architecture metric improvement.
type Fig6Row struct {
	Metric    string
	Reduction float64
}

// boltDefault is spec built under cfg and BOLTed with the default
// profile mode and options: its baseline and the output's measurement.
func boltDefault(l *Lab, spec workload.Spec, cfg BuildConfig, withHeat bool) (before, after *Measurement, err error) {
	s, err := l.Subject(spec, cfg)
	if err != nil {
		return nil, nil, err
	}
	return s.bolted(perf.DefaultMode(), core.DefaultOptions(), withHeat)
}

// Fig6 reports HHVM miss-rate reductions across the hierarchy.
func Fig6(l *Lab) ([]Fig6Row, string, error) {
	mb, mo, err := boltDefault(l, workload.HHVM(), CfgHFSortLTO, false)
	if err != nil {
		return nil, "", err
	}
	b, o := mb.Metrics, mo.Metrics
	rows := []Fig6Row{
		{"Branch", uarch.Reduction(b.BranchMiss, o.BranchMiss)},
		{"D-Cache", uarch.Reduction(b.L1DMiss, o.L1DMiss)},
		{"I-Cache", uarch.Reduction(b.L1IMiss, o.L1IMiss)},
		{"I-TLB", uarch.Reduction(b.ITLBMiss, o.ITLBMiss)},
		{"D-TLB", uarch.Reduction(b.DTLBMiss, o.DTLBMiss)},
		{"LLC", uarch.Reduction(b.LLCMiss, o.LLCMiss)},
	}
	var sb strings.Builder
	sb.WriteString("Figure 6: micro-architecture miss reductions for HHVM\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-8s %6.2f%%\n", r.Metric, 100*r.Reduction)
	}
	fmt.Fprintf(&sb, "  (CPU time: %.2f%% speedup)\n", 100*uarch.Speedup(b, o))
	return rows, sb.String(), nil
}

// CompilerRow is one bar group of Figures 7/8.
type CompilerRow struct {
	Input   string
	BOLT    float64 // BOLT on plain baseline
	PGO     float64 // PGO(+LTO) over baseline
	PGOBOLT float64 // PGO(+LTO)+BOLT over baseline
}

// Fig7 is the Clang comparison: BOLT against and on top of PGO+LTO.
func Fig7(l *Lab) ([]CompilerRow, string, error) {
	return compilerExperiment(workload.Clang(), true, l)
}

// Fig8 is the GCC comparison: BOLT against and on top of PGO (no LTO).
func Fig8(l *Lab) ([]CompilerRow, string, error) {
	return compilerExperiment(workload.GCC(), false, l)
}

// compilerExperiment implements Figures 7 and 8. Speedups are against
// the plain -O2 build, measured on four evaluation inputs after training
// on a separate input.
func compilerExperiment(spec workload.Spec, useLTO bool, l *Lab) ([]CompilerRow, string, error) {
	spec.InputSeed = spec.Seed ^ 0x7EA12345 // PGO training input
	pgoCfg := CfgPGO
	if useLTO {
		pgoCfg = CfgPGOLTO
	}
	// The plain build, BOLT on it, the PGO build and BOLT on that.
	var binaries []*elfx.File
	for _, cfg := range []BuildConfig{CfgBaseline, pgoCfg} {
		s, err := l.Subject(spec, cfg)
		if err != nil {
			return nil, "", err
		}
		fd, err := s.Profile(perf.DefaultMode())
		if err != nil {
			return nil, "", err
		}
		sess, _, err := s.optimize(fd)
		if err != nil {
			return nil, "", fmt.Errorf("bolt %s: %w", cfg.Name, err)
		}
		binaries = append(binaries, s.File, sess.Output())
	}

	inputs := []struct {
		name string
		seed uint64
	}{
		{"input1", spec.Seed ^ 0x101}, {"input2", spec.Seed ^ 0x202},
		{"input3", spec.Seed ^ 0x303}, {"build", spec.Seed ^ 0x404},
	}
	// All four are the same program, so on every input the plain build's
	// checksum is the reference for the other three.
	var rows []CompilerRow
	for _, in := range inputs {
		var ms [4]*Measurement
		for i, f := range binaries {
			f, err := withInput(f, in.seed)
			if err != nil {
				return nil, "", err
			}
			if ms[i], err = measureSame(f, ms[0], false); err != nil {
				return nil, "", fmt.Errorf("%s: %w", in.name, err)
			}
		}
		speedup := func(i int) float64 {
			return float64(ms[0].Metrics.Cycles)/float64(ms[i].Metrics.Cycles) - 1
		}
		rows = append(rows, CompilerRow{Input: in.name, BOLT: speedup(1), PGO: speedup(2), PGOBOLT: speedup(3)})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 7/8 (%s): speedups over the plain build\n", spec.Name)
	fmt.Fprintf(&sb, "  %-10s %10s %12s %14s\n", "input", "BOLT", pgoCfg.Name, pgoCfg.Name+"+BOLT")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-10s %9.2f%% %11.2f%% %13.2f%%\n",
			r.Input, 100*r.BOLT, 100*r.PGO, 100*r.PGOBOLT)
	}
	return rows, sb.String(), nil
}

// Table2 reproduces the dyno-stats comparison: BOLT's effect on branch
// statistics over the baseline build and over the PGO+LTO build.
func Table2(l *Lab) (string, error) {
	var buf bytes.Buffer
	for _, c := range []struct {
		title string
		cfg   BuildConfig
	}{{"BOLT over baseline", CfgBaseline}, {"BOLT over PGO+LTO", CfgPGOLTO}} {
		s, err := l.Subject(workload.Clang(), c.cfg)
		if err != nil {
			return "", err
		}
		fd, err := s.Profile(perf.DefaultMode())
		if err != nil {
			return "", err
		}
		_, rep, err := s.optimize(fd, bolt.WithDynoStats(true))
		if err != nil {
			return "", err
		}
		core.PrintComparison(&buf, c.title, rep.Dyno.Before, rep.Dyno.After)
	}
	return buf.String(), nil
}

// Fig9 produces before/after heat maps, rendered as text and CSV, and
// the hot-span packing numbers.
func Fig9(l *Lab) (Result, error) {
	before, after, err := boltDefault(l, workload.HHVM(), CfgHFSortLTO, true)
	if err != nil {
		return Result{}, err
	}
	var sb strings.Builder
	sb.WriteString("Figure 9: instruction-address heat (hot-span covering 95% of fetches)\n")
	fmt.Fprintf(&sb, "  without BOLT: %8d bytes of %d\n", before.Heat.HotSpan(0.95), before.Heat.Limit-before.Heat.Base)
	fmt.Fprintf(&sb, "  with BOLT:    %8d bytes of %d\n", after.Heat.HotSpan(0.95), after.Heat.Limit-after.Heat.Base)
	return Result{Report: sb.String(), Blobs: []Blob{
		{"before.txt", before.Heat.Render()},
		{"after.txt", after.Heat.Render()},
		{"before.csv", before.Heat.CSV()},
		{"after.csv", after.Heat.CSV()},
	}}, nil
}

// Fig10 runs -report-bad-layout on a PGO+LTO compiler build.
func Fig10(l *Lab) (string, error) {
	s, err := l.Subject(workload.Clang(), CfgPGOLTO)
	if err != nil {
		return "", err
	}
	fd, err := s.Profile(perf.DefaultMode())
	if err != nil {
		return "", err
	}
	sess, err := analyze(s.File, fd)
	if err != nil {
		return "", err
	}
	return sess.BadLayoutReport(10)
}

// Fig11Row reports the improvement from using LBRs for one optimization
// scenario (higher is better, like the paper's Figure 11).
type Fig11Row struct {
	Scenario string
	Metric   string
	LBRGain  float64
}

// Fig11 compares BOLT with LBR profiles against BOLT with non-LBR
// profiles under three scenarios: function reordering only, basic-block
// reordering (plus other opts), and both.
func Fig11(l *Lab) ([]Fig11Row, string, error) {
	lbrMode := perf.DefaultMode()
	nolbrMode := lbrMode
	nolbrMode.LBR = false

	base, err := l.Subject(workload.HHVM(), CfgBaseline)
	if err != nil {
		return nil, "", err
	}

	scenario := func(name string) core.Options {
		opts := core.DefaultOptions()
		switch name {
		case "Functions":
			opts.ReorderBlocks = layout.AlgoNone
			opts.SplitFunctions = false
		case "BBs":
			opts.ReorderFunctions = hfsort.AlgoNone
		}
		return opts
	}

	var rows []Fig11Row
	var sb strings.Builder
	sb.WriteString("Figure 11: improvement from LBR profiles vs non-LBR (per scenario)\n")
	for _, sc := range []string{"Functions", "BBs", "Both"} {
		opts := scenario(sc)
		_, ml, err := base.bolted(lbrMode, opts, false)
		if err != nil {
			return nil, "", fmt.Errorf("%s, LBR: %w", sc, err)
		}
		_, mn, err := base.bolted(nolbrMode, opts, false)
		if err != nil {
			return nil, "", fmt.Errorf("%s, no LBR: %w", sc, err)
		}
		l, n := ml.Metrics, mn.Metrics
		add := func(metric string, lv, nv uint64) {
			gain := uarch.Reduction(nv, lv) // how much LBR reduces the metric
			rows = append(rows, Fig11Row{Scenario: sc, Metric: metric, LBRGain: gain})
			fmt.Fprintf(&sb, "  %-10s %-14s %6.2f%%\n", sc, metric, 100*gain)
		}
		add("Instructions", l.Instructions, n.Instructions)
		add("Branch-miss", l.BranchMiss, n.BranchMiss)
		add("I-cache-miss", l.L1IMiss, n.L1IMiss)
		add("LLC-miss", l.LLCMiss, n.LLCMiss)
		add("iTLB-miss", l.ITLBMiss, n.ITLBMiss)
		add("CPU time", l.Cycles, n.Cycles)
	}
	return rows, sb.String(), nil
}

// EventsRow is one sampling-event configuration result (§5.1).
type EventsRow struct {
	Config  string
	Speedup float64
}

// Events reproduces the §5.1 study: BOLT speedups are stable across LBR
// sampling events but degrade with biased non-LBR samples.
func Events(l *Lab) ([]EventsRow, string, error) {
	base, err := l.Subject(workload.TAO(), CfgBaseline)
	if err != nil {
		return nil, "", err
	}
	var rows []EventsRow
	var sb strings.Builder
	sb.WriteString("Section 5.1: sampling-event sensitivity of BOLT speedups\n")
	for _, cfg := range []struct {
		name string
		mode perf.Mode
	}{
		{"lbr-cycles", perf.Mode{LBR: true, Event: perf.EventCycles, Period: 4096}},
		{"lbr-instructions", perf.Mode{LBR: true, Event: perf.EventInstructions, Period: 4096}},
		{"lbr-branches", perf.Mode{LBR: true, Event: perf.EventBranches, Period: 4096}},
		{"nolbr-cycles", perf.Mode{LBR: false, Event: perf.EventCycles, Period: 512}},
		{"nolbr-cycles-pebs", perf.Mode{LBR: false, Event: perf.EventCycles, Period: 512, PEBS: 3}},
	} {
		mb, mo, err := base.bolted(cfg.mode, core.DefaultOptions(), false)
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", cfg.name, err)
		}
		sp := uarch.Speedup(mb.Metrics, mo.Metrics)
		rows = append(rows, EventsRow{Config: cfg.name, Speedup: sp})
		fmt.Fprintf(&sb, "  %-20s %6.2f%%\n", cfg.name, 100*sp)
	}
	return rows, sb.String(), nil
}

// ICFResult quantifies binary-level ICF beyond linker ICF (§4).
type ICFResult struct {
	LinkerFolded int
	BoltFolded   int
	BoltBytes    int64
	TextSize     uint64
}

// ICF measures how much code gobolt's ICF removes on top of the linker's.
func ICF(l *Lab) (*ICFResult, string, error) {
	s, err := l.Subject(workload.HHVM(), CfgBaseline)
	if err != nil {
		return nil, "", err
	}
	fd, err := s.Profile(perf.DefaultMode())
	if err != nil {
		return nil, "", err
	}
	_, rep, err := s.optimize(fd)
	if err != nil {
		return nil, "", err
	}
	res := &ICFResult{
		LinkerFolded: s.ICFFolded,
		BoltFolded:   int(rep.Metrics["icf-folded"]),
		BoltBytes:    rep.Metrics["icf-bytes"],
		TextSize:     s.TextSize,
	}
	report := fmt.Sprintf(
		"ICF (§4): linker folded %d functions; gobolt folded %d more (%d bytes, %.2f%% of .text)\n",
		res.LinkerFolded, res.BoltFolded, res.BoltBytes,
		100*float64(res.BoltBytes)/float64(res.TextSize))
	return res, report, nil
}

// Fig2Report runs the paper's Figure 2 setup end to end: with PGO the
// inlined copies of foo share one merged (50/50) source profile, while
// gobolt sees each binary copy's own branch statistics. The report
// shows taken conditional branches (the VM's retirement count) and
// cycles per configuration: PGO+LTO takes 99 997, and PGO+LTO+BOLT
// 49 998, the loop's back edge alone, because BOLT makes each copy's own
// hot side its fall-through.
// TestFigure2Mechanism holds the mechanism per copy.
func Fig2Report(l *Lab) (string, error) {
	mode := perf.DefaultMode()
	mode.Period = 512
	lto, err := l.Subject(figure2, CfgLTO) // inlining across modules is the point
	if err != nil {
		return "", err
	}
	pgo, err := l.Subject(figure2, CfgPGOLTO)
	if err != nil {
		return "", err
	}
	before, err := lto.Baseline()
	if err != nil {
		return "", err
	}
	withPGO, withBolt, err := pgo.bolted(mode, core.DefaultOptions(), false)
	if err != nil {
		return "", err
	}
	if withPGO.Checksum != before.Checksum {
		return "", fmt.Errorf("bench: checksum mismatch: PGO+LTO computes %#x, LTO %#x", withPGO.Checksum, before.Checksum)
	}
	var sb strings.Builder
	sb.WriteString("Figure 2 mechanism: taken conditional branches (lower is better)\n")
	fmt.Fprintf(&sb, "  %-22s taken=%d  cycles=%d\n", "LTO (no profile)", before.Counters.TakenBranch, before.Metrics.Cycles)
	fmt.Fprintf(&sb, "  %-22s taken=%d  cycles=%d  (merged source profile)\n", "PGO+LTO", withPGO.Counters.TakenBranch, withPGO.Metrics.Cycles)
	fmt.Fprintf(&sb, "  %-22s taken=%d  cycles=%d  (per-copy binary profile)\n", "PGO+LTO+BOLT", withBolt.Counters.TakenBranch, withBolt.Metrics.Cycles)
	return sb.String(), nil
}
