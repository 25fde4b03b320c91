// Package bench is the experiment harness: it wires the whole toolchain
// into the build→profile→rebuild→bolt→measure spine that regenerates
// every table and figure of the paper's evaluation (§6). A Lab holds one
// run's Subjects, each built, profiled and measured once however many
// experiments read it. Experiments is the index; README "Tools" shows how
// boltbench runs it.
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
	"gobolt/internal/ir"
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
	// run; Lab.Subject handles the two-phase build).
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

// compile compiles and links prog.
func compile(prog *ir.Program, copts cc.Options, lopts ld.Options) (*ld.Result, error) {
	objs, err := cc.Compile(prog, copts)
	if err != nil {
		return nil, err
	}
	return ld.Link(objs, lopts)
}

// Rebuild is the second phase of a PGO build: fd is a train profile
// recorded on plain, prog built under copts and lopts. fd is converted to
// source level against plain and compiled in; a non-empty order also lays
// functions out at link time by that algorithm over fd's calls. Then prog
// is compiled and linked again.
func Rebuild(prog *ir.Program, copts cc.Options, lopts ld.Options, plain *elfx.File, fd *profile.Fdata, order hfsort.Algorithm) (*ld.Result, error) {
	sp, err := SourceProfile(plain, fd)
	if err != nil {
		return nil, err
	}
	copts.PGO = sp
	if order != "" {
		lopts.FuncOrder = hfsort.LinkOrder(profile.BuildCallGraph(fd), plain, order)
	}
	return compile(prog, copts, lopts)
}

// SourceProfile converts a binary-level profile back to source
// coordinates — the AutoFDO step. Branch statistics are keyed by
// (file, line): after inlining, every binary copy of a source branch
// shares one entry, which is precisely the accuracy loss of paper
// Figure 2 (§2.2); perfect per-copy truth cannot be represented.
func SourceProfile(f *elfx.File, fd *profile.Fdata) (*cc.SourceProfile, error) {
	sess, err := analyze(f, fd)
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

// analyze opens f with the profile fd attached (nil = none) and builds its
// context: the session answers Functions, Stats, DynoStats, Shapes and
// BadLayoutReport about f, and Optimize runs the pipeline on it. With no
// options it runs core.DefaultOptions, the paper's evaluation
// configuration, at GOMAXPROCS workers.
func analyze(f *elfx.File, fd *profile.Fdata, opts ...bolt.Option) (*bolt.Session, error) {
	sess, err := bolt.OpenELF(f, opts...)
	if err != nil {
		return nil, err
	}
	if fd != nil {
		if err := sess.LoadProfile(context.Background(), bolt.Fdata(fd)); err != nil {
			return nil, err
		}
	}
	return sess, sess.Analyze(context.Background())
}

// Lab holds the subjects of one experiment run at one scale: boltbench
// hands one to every experiment of a run, so a build that several figures
// read is built, profiled and measured once. Not safe for concurrent use.
type Lab struct {
	scale    Scale
	subjects map[subjectKey]*Subject
}

type subjectKey struct {
	spec workload.Spec
	cfg  BuildConfig
}

// Scale shrinks workload iteration counts for fast runs (1.0 = full).
type Scale float64

func (s Scale) apply(spec workload.Spec) workload.Spec {
	if s > 0 && s != 1 {
		spec.Iterations = max(int(float64(spec.Iterations)*float64(s)), 500)
	}
	return spec
}

// figure2 is the lab key of workload.GenerateFigure2's program, which no
// Spec knob shapes and no scale changes.
var figure2 = workload.Spec{Name: "figure2"}

func (l *Lab) generate(spec workload.Spec) *ir.Program {
	if spec == figure2 {
		return workload.GenerateFigure2()
	}
	return workload.Generate(l.scale.apply(spec))
}

// NewLab returns an empty lab whose subjects run at scale.
func NewLab(scale Scale) *Lab {
	return &Lab{scale: scale, subjects: map[subjectKey]*Subject{}}
}

// Subject is one build of a workload in a Lab. It is built once, measures
// its baseline once and records one train profile per perf.Mode; BOLT and
// the simulation of its output run per request. Every experiment of the
// lab reads the same File, so none may write it (withInput copies).
type Subject struct {
	*ld.Result
	base     *Measurement
	profiles map[perf.Mode]*profile.Fdata
	shapes   map[string]profile.FuncShape
}

// Subject returns spec, scaled to the lab, built under cfg: built on the
// first request, the same Subject on every later one. A PGO or HFSort
// build takes its train profile (perf.DefaultMode) from the lab's plain
// build of spec under the same LTO setting.
func (l *Lab) Subject(spec workload.Spec, cfg BuildConfig) (*Subject, error) {
	key := subjectKey{spec, cfg}
	if s := l.subjects[key]; s != nil {
		return s, nil
	}
	res, err := l.build(spec, cfg)
	if err != nil {
		return nil, err
	}
	return l.add(key, res), nil
}

// add registers res as the lab's subject under key.
func (l *Lab) add(key subjectKey, res *ld.Result) *Subject {
	s := &Subject{Result: res, profiles: map[perf.Mode]*profile.Fdata{}}
	l.subjects[key] = s
	return s
}

func (l *Lab) build(spec workload.Spec, cfg BuildConfig) (*ld.Result, error) {
	copts := cc.DefaultOptions()
	copts.LTO = cfg.LTO
	lopts := ld.Options{EmitRelocs: true, ICF: true, NoPLT: cfg.LTO}
	if !cfg.PGO && !cfg.HFSortLink {
		return compile(l.generate(spec), copts, lopts)
	}
	plainKey := subjectKey{spec, CfgBaseline}
	if cfg.LTO {
		plainKey.cfg = CfgLTO
	}
	if cfg.PGO {
		plain, fd, err := l.trainProfile(spec, plainKey.cfg)
		if err != nil {
			return nil, err
		}
		return Rebuild(l.generate(spec), copts, lopts, plain.File, fd, "")
	}
	// An HFSort build links its plain sibling's very objects in another
	// order, so while the sibling is unbuilt one compile serves both
	// links. The objects die with this call: keeping them for a later
	// build would double the lab's peak memory.
	objs, err := cc.Compile(l.generate(spec), copts)
	if err != nil {
		return nil, err
	}
	if l.subjects[plainKey] == nil {
		res, err := ld.Link(objs, lopts)
		if err != nil {
			return nil, err
		}
		l.add(plainKey, res)
	}
	plain, fd, err := l.trainProfile(spec, plainKey.cfg)
	if err != nil {
		return nil, err
	}
	lopts.FuncOrder = hfsort.LinkOrder(profile.BuildCallGraph(fd), plain.File, hfsort.AlgoHFSort)
	return ld.Link(objs, lopts)
}

// trainProfile is the lab's subject of spec under the plain cfg and its
// train profile (perf.DefaultMode).
func (l *Lab) trainProfile(spec workload.Spec, cfg BuildConfig) (*Subject, *profile.Fdata, error) {
	plain, err := l.Subject(spec, cfg)
	if err != nil {
		return nil, nil, err
	}
	fd, err := plain.Profile(perf.DefaultMode())
	return plain, fd, err
}

// Baseline is the subject's binary run under the default
// microarchitecture, measured on the first request.
func (s *Subject) Baseline() (*Measurement, error) {
	var err error
	if s.base == nil {
		s.base, err = Measure(s.File, uarch.DefaultConfig(), false)
	}
	return s.base, err
}

// Profile is the subject's profile on its train input under mode,
// recorded on the first request.
func (s *Subject) Profile(mode perf.Mode) (*profile.Fdata, error) {
	if fd := s.profiles[mode]; fd != nil {
		return fd, nil
	}
	fd, _, err := perf.RecordFile(s.File, mode, 0)
	if err == nil {
		s.profiles[mode] = fd
	}
	return fd, err
}

// shapedProfile is a copy of Profile(mode) carrying the subject's CFG
// shapes, the way `vmrun -record` writes a profile.
func (s *Subject) shapedProfile(mode perf.Mode) (*profile.Fdata, error) {
	fd, err := s.Profile(mode)
	if err != nil {
		return nil, err
	}
	if s.shapes == nil {
		sess, err := analyze(s.File, nil)
		if err != nil {
			return nil, err
		}
		if s.shapes, err = sess.Shapes(); err != nil {
			return nil, err
		}
	}
	shaped := *fd
	shaped.Shapes = s.shapes
	return &shaped, nil
}

// optimize runs BOLT on the subject with profile fd, its own or another
// binary's, and returns the finished session and its report.
func (s *Subject) optimize(fd *profile.Fdata, opts ...bolt.Option) (*bolt.Session, *bolt.Report, error) {
	sess, err := analyze(s.File, fd, opts...)
	if err != nil {
		return nil, nil, err
	}
	rep, err := sess.Optimize(context.Background())
	return sess, rep, err
}

// bolted optimizes the subject with opts and its profile under mode, and
// returns its baseline and the output's measurement, which must compute
// the baseline's result. withHeat measures both anew, with heat maps.
func (s *Subject) bolted(mode perf.Mode, opts core.Options, withHeat bool) (before, after *Measurement, err error) {
	if withHeat {
		before, err = Measure(s.File, uarch.DefaultConfig(), true)
	} else {
		before, err = s.Baseline()
	}
	if err != nil {
		return nil, nil, err
	}
	fd, err := s.Profile(mode)
	if err != nil {
		return nil, nil, err
	}
	sess, _, err := s.optimize(fd, bolt.WithOptions(opts))
	if err != nil {
		return nil, nil, fmt.Errorf("bolt: %w", err)
	}
	after, err = measureSame(sess.Output(), before, withHeat)
	return before, after, err
}

// Measurement is one simulated run.
type Measurement struct {
	Metrics  *uarch.Metrics
	Counters vm.Counters // the VM's retirement counts
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
		heat = heatmap.New(f.ExecSpan())
		tr = vm.TeeTracer{probe, heat.Tracer()}
	}
	m.SetTracer(tr)
	if _, err := m.Run(0); err != nil {
		return nil, err
	}
	if !m.Halted() {
		return nil, fmt.Errorf("bench: program did not halt")
	}
	metrics := *probe.Finish() // a copy: the simulator's own keeps its caches alive
	return &Measurement{Metrics: &metrics, Counters: m.C, Checksum: m.Result(), Heat: heat,
		ColdInsts: probe.insts, ColdCrossings: probe.crossings}, nil
}

// measureSame measures f and fails unless it computes ref's VM checksum
// (nil ref: f is the reference). Every binary an experiment derives from
// another — BOLTed, PGO-rebuilt, re-BOLTed from a translated profile — is
// measured through here, so no figure is ever reported for a binary that
// changed the program's result.
func measureSame(f *elfx.File, ref *Measurement, withHeat bool) (*Measurement, error) {
	m, err := Measure(f, uarch.DefaultConfig(), withHeat)
	if err != nil {
		return nil, err
	}
	if ref != nil && m.Checksum != ref.Checksum {
		return nil, fmt.Errorf("bench: checksum mismatch: got %#x, baseline computes %#x", m.Checksum, ref.Checksum)
	}
	return m, nil
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
