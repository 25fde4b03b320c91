// Package bench is the experiment harness: it wires the whole toolchain
// into the build→profile→rebuild→bolt→measure pipelines that regenerate
// every table and figure of the paper's evaluation (§6). Experiments is
// the index; README "Tools" shows how boltbench runs it.
package bench

import (
	"context"
	"fmt"
	"math"

	"gobolt/bolt"
	"gobolt/internal/cc"
	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/heatmap"
	"gobolt/internal/hfsort"
	"gobolt/internal/ld"
	"gobolt/internal/perf"
	"gobolt/internal/profile"
	"gobolt/internal/uarch"
	"gobolt/internal/vm"
	"gobolt/internal/workload"
)

// BuildConfig names a compiler/linker configuration (the paper's
// baselines).
type BuildConfig struct {
	Name string
	// PGO rebuilds with a source-keyed profile (requires a prior train
	// run; the harness handles the two-phase build).
	PGO bool
	// LTO enables cross-module inlining and static PLT elision.
	LTO bool
	// HFSortLink orders functions at link time from the profile (the
	// Figure 5 baseline).
	HFSortLink bool
}

// Standard configurations.
var (
	CfgBaseline  = BuildConfig{Name: "O2"}
	CfgLTO       = BuildConfig{Name: "LTO", LTO: true}
	CfgPGO       = BuildConfig{Name: "PGO", PGO: true}
	CfgPGOLTO    = BuildConfig{Name: "PGO+LTO", PGO: true, LTO: true}
	CfgHFSort    = BuildConfig{Name: "HFSort", HFSortLink: true}
	CfgHFSortLTO = BuildConfig{Name: "HFSort+LTO", HFSortLink: true, LTO: true}
)

// Build compiles and links a workload under a configuration. For PGO or
// HFSortLink it first builds a plain binary, profiles it on the *train*
// input, converts the profile (source-keyed for PGO, call graph for
// HFSort), and rebuilds.
func Build(spec workload.Spec, cfg BuildConfig, mode perf.Mode) (*elfx.File, *ld.Result, error) {
	prog := workload.Generate(spec)

	copts := cc.DefaultOptions()
	copts.LTO = cfg.LTO
	lopts := ld.Options{EmitRelocs: true, ICF: true, NoPLT: cfg.LTO}

	objs, err := cc.Compile(prog, copts)
	if err != nil {
		return nil, nil, err
	}
	res, err := ld.Link(objs, lopts)
	if err != nil {
		return nil, nil, err
	}
	if !cfg.PGO && !cfg.HFSortLink {
		return res.File, res, nil
	}

	// Train run on the plain binary.
	fd, _, err := perf.RecordFile(res.File, mode, 0)
	if err != nil {
		return nil, nil, err
	}

	if cfg.PGO {
		sp, err := SourceProfile(res.File, fd)
		if err != nil {
			return nil, nil, err
		}
		copts.PGO = sp
		objs, err = cc.Compile(prog, copts)
		if err != nil {
			return nil, nil, err
		}
	}
	if cfg.HFSortLink {
		lopts.FuncOrder = hfsort.LinkOrder(profile.BuildCallGraph(fd), res.File, hfsort.AlgoHFSort)
	}
	res, err = ld.Link(objs, lopts)
	if err != nil {
		return nil, nil, err
	}
	return res.File, res, nil
}

// SourceProfile converts a binary-level profile back to source
// coordinates — the AutoFDO step. Branch statistics are keyed by
// (file, line): after inlining, every binary copy of a source branch
// shares one entry, which is precisely the accuracy loss of paper
// Figure 2 (§2.2); perfect per-copy truth cannot be represented.
func SourceProfile(f *elfx.File, fd *profile.Fdata) (*cc.SourceProfile, error) {
	sess, err := analyzeSession(f, fd)
	if err != nil {
		return nil, err
	}
	funcs, err := sess.Functions()
	if err != nil {
		return nil, err
	}

	sp := cc.NewSourceProfile()
	for _, fn := range funcs {
		if !fn.Simple {
			continue
		}
		if fn.ExecCount > 0 {
			sp.Func[fn.Name] += fn.ExecCount
		}
		for _, b := range fn.Blocks {
			if last := b.LastInst(); last != nil && len(b.Succs) == 2 {
				if file, line := fn.SourceLine(last); file != "" {
					key := cc.SrcKey{File: file, Line: line}
					for _, e := range b.Succs {
						succ, ok := blockSrcKey(fn, e.To)
						if !ok {
							continue
						}
						sp.AddBranchSample(key, succ, e.Count)
					}
				}
			}
			for i := range b.Insts {
				in := &b.Insts[i]
				if !in.IsCall() {
					continue
				}
				if file, line := fn.SourceLine(in); file != "" {
					sp.Call[cc.SrcKey{File: file, Line: line}] += b.ExecCount
				}
			}
		}
	}
	return sp, nil
}

// blockSrcKey reads the source coordinate of a CFG block's first
// attributed instruction.
func blockSrcKey(fn *core.BinaryFunction, b *core.BasicBlock) (cc.SrcKey, bool) {
	for i := range b.Insts {
		if file, line := fn.SourceLine(&b.Insts[i]); file != "" {
			return cc.SrcKey{File: file, Line: line}, true
		}
	}
	return cc.SrcKey{}, false
}

// Bolt applies gobolt to a binary: profile on the train input, then
// optimize through the bolt API.
func Bolt(f *elfx.File, mode perf.Mode, opts core.Options) (*elfx.File, *bolt.Report, error) {
	fd, _, err := perf.RecordFile(f, mode, 0)
	if err != nil {
		return nil, nil, err
	}
	sess, rep, err := optimizeSession(f, fd, bolt.WithOptions(opts))
	if err != nil {
		return nil, nil, err
	}
	return sess.Output(), rep, nil
}

// openSession opens an in-memory binary and attaches fd (nil = no
// profile). A session opened with no options runs core.DefaultOptions,
// the paper's evaluation configuration, at GOMAXPROCS workers.
func openSession(f *elfx.File, fd *profile.Fdata, opts ...bolt.Option) (*bolt.Session, error) {
	sess, err := bolt.OpenELF(f, opts...)
	if err != nil {
		return nil, err
	}
	if fd != nil {
		if err := sess.LoadProfile(context.Background(), bolt.Fdata(fd)); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// analyzeSession stops after load and profile attach: the session
// answers Functions, Stats, DynoStats and Shapes about the input.
func analyzeSession(f *elfx.File, fd *profile.Fdata, opts ...bolt.Option) (*bolt.Session, error) {
	sess, err := openSession(f, fd, opts...)
	if err != nil {
		return nil, err
	}
	if err := sess.Analyze(context.Background()); err != nil {
		return nil, err
	}
	return sess, nil
}

// optimizeSession drives one full bolt run (open → profile → optimize)
// and returns the finished session plus its report (the output image is
// sess.Output()).
func optimizeSession(f *elfx.File, fd *profile.Fdata, opts ...bolt.Option) (*bolt.Session, *bolt.Report, error) {
	sess, err := openSession(f, fd, opts...)
	if err != nil {
		return nil, nil, err
	}
	rep, err := sess.Optimize(context.Background())
	if err != nil {
		return nil, nil, err
	}
	return sess, rep, nil
}

// Measurement is one simulated run.
type Measurement struct {
	Metrics  *uarch.Metrics
	Checksum uint64
	Heat     *heatmap.Map
	// ColdInsts is how many of Metrics.Instructions were fetched from
	// .text.cold, and ColdCrossings how often control crossed its
	// boundary in either direction: what splitting got wrong, from the
	// binary's side. Both 0 for a binary that is not split.
	ColdInsts, ColdCrossings uint64
}

// coldProbe is the simulator plus a count of the instructions fetched
// inside [lo, hi) and of the crossings of that range's boundary.
type coldProbe struct {
	*uarch.Sim
	lo, hi           uint64
	inCold           bool
	insts, crossings uint64
}

func (p *coldProbe) Inst(addr uint64, size uint8) {
	cold := addr-p.lo < p.hi-p.lo
	if cold {
		p.insts++
	}
	if cold != p.inCold {
		p.inCold = cold
		p.crossings++
	}
	p.Sim.Inst(addr, size)
}

// Measure runs the binary to completion under the microarchitecture
// simulator. withHeat also collects the Figure 9 fetch heat map over all
// executable sections.
func Measure(f *elfx.File, cfg uarch.Config, withHeat bool) (*Measurement, error) {
	m, err := vm.New(f)
	if err != nil {
		return nil, err
	}
	probe := &coldProbe{Sim: uarch.New(cfg)}
	if cold := f.Section(".text.cold"); cold != nil {
		probe.lo, probe.hi = cold.Addr, cold.Addr+cold.Size()
	}
	var tr vm.Tracer = probe
	var heat *heatmap.Map
	if withHeat {
		lo, hi := execSpan(f)
		heat = heatmap.New(lo, hi)
		tr = vm.TeeTracer{probe, heat.Tracer()}
	}
	m.SetTracer(tr)
	if _, err := m.Run(0); err != nil {
		return nil, err
	}
	if !m.Halted() {
		return nil, fmt.Errorf("bench: program did not halt")
	}
	return &Measurement{Metrics: probe.Finish(), Checksum: m.Result(), Heat: heat,
		ColdInsts: probe.insts, ColdCrossings: probe.crossings}, nil
}

// execSpan returns the [lo, hi) address range of executable sections.
func execSpan(f *elfx.File) (uint64, uint64) {
	var lo, hi uint64
	first := true
	for _, s := range f.Sections {
		if s.Flags&elfx.SHFExecinstr == 0 || s.Size() == 0 {
			continue
		}
		if first || s.Addr < lo {
			lo = s.Addr
		}
		if first || s.Addr+s.Size() > hi {
			hi = s.Addr + s.Size()
		}
		first = false
	}
	return lo, hi
}

// measureSame measures f and fails unless it computes ref's VM checksum.
// Every binary an experiment derives from another — BOLTed, PGO-rebuilt,
// re-BOLTed from a translated profile — is measured through here, so no
// figure is ever reported for a binary that changed the program's result.
func measureSame(f *elfx.File, ref *Measurement, withHeat bool) (*Measurement, error) {
	m, err := Measure(f, uarch.DefaultConfig(), withHeat)
	if err != nil {
		return nil, err
	}
	if m.Checksum != ref.Checksum {
		return nil, fmt.Errorf("bench: checksum mismatch: got %#x, baseline computes %#x", m.Checksum, ref.Checksum)
	}
	return m, nil
}

// boltMeasured profiles f on the train input under mode, optimizes it
// with opts and measures the result against ref: the measurement of f
// itself, or of another build of the same program.
func boltMeasured(f *elfx.File, ref *Measurement, mode perf.Mode, opts core.Options, withHeat bool) (*Measurement, error) {
	bolted, _, err := Bolt(f, mode, opts)
	if err != nil {
		return nil, fmt.Errorf("bolt: %w", err)
	}
	return measureSame(bolted, ref, withHeat)
}

// buildBoltMeasure is the whole spine for one workload under the
// default profile mode and options: build → record → optimize → measure
// the build and its BOLTed form.
func buildBoltMeasure(spec workload.Spec, cfg BuildConfig, withHeat bool) (before, after *Measurement, err error) {
	mode := perf.DefaultMode()
	base, _, err := Build(spec, cfg, mode)
	if err != nil {
		return nil, nil, err
	}
	if before, err = Measure(base, uarch.DefaultConfig(), withHeat); err != nil {
		return nil, nil, err
	}
	after, err = boltMeasured(base, before, mode, core.DefaultOptions(), withHeat)
	return before, after, err
}

// GeoMean of (1+x) values minus 1, for speedup aggregation.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	p := 1.0
	for _, x := range xs {
		p *= 1 + x
	}
	return math.Pow(p, 1/float64(len(xs))) - 1
}
