package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"gobolt/bolt"
	"gobolt/internal/cc"
	"gobolt/internal/elfx"
	"gobolt/internal/ir"
	"gobolt/internal/ld"
	"gobolt/internal/obj"
	"gobolt/internal/perf"
	"gobolt/internal/profile"
	"gobolt/internal/uarch"
	"gobolt/internal/vm"
	"gobolt/internal/workload"
)

// workloadDef is one row of the benchmark: which program is optimized,
// with what kind of profile, and the recorded reason it was chosen.
type workloadDef struct {
	Name string
	Why  string
	spec func() workload.Spec
	mode perf.Mode
	// stalePad > 0 makes the profile stale: it is recorded (with CFG
	// shapes, fdata v2) on the spec as given — release v1 — while the
	// optimizer is handed release v2, the same program with stalePad
	// instructions added to every function entry.
	stalePad int
}

func clang() workload.Spec {
	s := workload.Clang()
	s.Iterations = 3000
	return s
}

func hhvm() workload.Spec {
	s := workload.HHVM()
	s.Iterations = 4800
	return s
}

var workloads = []workloadDef{
	{
		Name: "clang-lbr",
		Why:  "paper 6.2 subject and canonical cost row: load, passes and emit each take about a third of the op, so a gain in any layer shows and none dominates",
		spec: clang, mode: perf.DefaultMode(),
	},
	{
		Name: "hhvm-lbr",
		Why:  "largest, most front-end-bound binary (Fig 5/6/9): load+emit are two thirds of the op and peak memory is highest, so a pass-only gain barely moves it and an emit or heap change moves it most",
		spec: hhvm, mode: perf.DefaultMode(),
	},
	{
		Name: "clang-stale-nolbr",
		Why:  "clang-lbr's binary family with a non-LBR profile recorded on the previous release: stale matching and min-cost-flow inference run on most functions, so a profile-path change moves it and not clang-lbr",
		spec: clang, mode: perf.Mode{Event: perf.EventCycles, Period: 512}, stalePad: 3,
	},
	{
		Name: "proxygen-lbr",
		Why:  "small service: fixed per-run costs (ELF parse, discovery, pool start-up, report) weigh most, so trading a fixed cost for per-function savings shows as a loss here; most ops per run",
		spec: workload.Proxygen, mode: perf.DefaultMode(),
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// mix derives an independent 64-bit stream value from the run seed
// (splitmix64 finalizer), never 0.
func mix(seed, salt uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + salt*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31 | 1
}

// inputs is everything the optimizer is handed plus what is needed to
// judge its output. The optimizer only ever sees elf and fdata.
type inputs struct {
	elf   []byte // the binary to optimize, serialized
	fdata []byte // the profile, serialized
	// evalSeeds are the two evaluation inputs (paper §6.2: never the
	// training input).
	evalSeeds [2]uint64
}

// reference is how the un-BOLTed binary behaves on the evaluation
// inputs: the VM results every optimized binary must reproduce, produced
// by cc+ld+vm alone and never by the optimizer under test, and the
// baseline microarchitecture counters speedups are measured against.
type reference struct {
	results [2]uint64
	base    uarch.Metrics // summed over both inputs
	perEval [2]uint64     // baseline cycles per input
}

// build is the set-up: generate → compile → link → record profile
// (→ shapes → build the next release). The seed permutes the order the
// objects are linked in and picks the evaluation inputs. The program and
// the training input the profile is recorded on stay the preset's, so the
// optimizer's counted work is the same under every seed (README "Seeds").
// Seed 0 links in module order, as minicc does.
func build(def workloadDef, seed uint64, tr *tracer, op int) (*inputs, error) {
	in := &inputs{evalSeeds: [2]uint64{mix(seed, 2), mix(seed, 3)}}
	spec := def.spec()
	profiled, err := compileLink(spec, seed, tr, op)
	if err != nil {
		return nil, err
	}
	var fd *profile.Fdata
	if err := tr.call("perf.record", op, func() (err error) {
		fd, _, err = perf.RecordFile(profiled, def.mode, 0)
		return err
	}); err != nil {
		return nil, fmt.Errorf("record profile: %w", err)
	}
	target := profiled
	if def.stalePad > 0 {
		if err := tr.call("profile.shapes", op, func() (err error) {
			fd.Shapes, err = shapesOf(profiled)
			return err
		}); err != nil {
			return nil, fmt.Errorf("profile shapes: %w", err)
		}
		spec.EntryPadOps = def.stalePad
		if target, err = compileLink(spec, seed, tr, op); err != nil {
			return nil, err
		}
	}
	if in.elf, err = target.Bytes(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := fd.Write(&buf); err != nil {
		return nil, err
	}
	in.fdata = buf.Bytes()
	return in, nil
}

// compileLink generates, compiles and links one release of a program.
// A non-zero shuffle permutes the link order of the objects.
func compileLink(spec workload.Spec, shuffle uint64, tr *tracer, op int) (*elfx.File, error) {
	var prog *ir.Program
	_ = tr.call("workload.generate", op, func() error {
		prog = workload.Generate(spec)
		return nil
	})
	var objs []*obj.Object
	if err := tr.call("cc.compile", op, func() (err error) {
		objs, err = cc.Compile(prog, cc.DefaultOptions())
		return err
	}); err != nil {
		return nil, fmt.Errorf("compile %s: %w", spec.Name, err)
	}
	if shuffle != 0 {
		for i := len(objs) - 1; i > 0; i-- {
			j := int(mix(shuffle, uint64(16+i)) % uint64(i+1))
			objs[i], objs[j] = objs[j], objs[i]
		}
	}
	var res *ld.Result
	if err := tr.call("ld.link", op, func() (err error) {
		res, err = ld.Link(objs, ld.Options{EmitRelocs: true, ICF: true})
		return err
	}); err != nil {
		return nil, fmt.Errorf("link %s: %w", spec.Name, err)
	}
	// ld emits the symbols of ICF-folded aliases in map order, so two
	// links of the same objects differ in symbol-table order. Address
	// order (names break ties) makes the same seed give the same bytes.
	syms := res.File.Symbols
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].Value != syms[j].Value {
			return syms[i].Value < syms[j].Value
		}
		return syms[i].Name < syms[j].Name
	})
	return res.File, nil
}

// establish runs the un-BOLTed binary on both evaluation inputs.
func establish(in *inputs) (*reference, error) {
	ref := &reference{}
	for i, seed := range in.evalSeeds {
		m, result, err := simulate(in.elf, seed)
		if err != nil {
			return nil, fmt.Errorf("reference run %d: %w", i, err)
		}
		ref.results[i], ref.perEval[i] = result, m.Cycles
		addMetrics(&ref.base, m)
	}
	return ref, nil
}

// simulate runs a serialized binary to completion on one evaluation
// input under the microarchitecture model and returns the counters and
// the program's result.
func simulate(elf []byte, inputSeed uint64) (*uarch.Metrics, uint64, error) {
	f, err := elfx.Read(elf)
	if err != nil {
		return nil, 0, err
	}
	sym, ok := f.SymbolByName("input")
	sec := f.SectionFor(sym.Value)
	if !ok || sec == nil {
		return nil, 0, fmt.Errorf("no mapped input symbol")
	}
	copy(sec.Data[sym.Value-sec.Addr:], workload.InputBytes(inputSeed, int(sym.Size)))
	m, err := vm.New(f)
	if err != nil {
		return nil, 0, err
	}
	sim := uarch.New(uarch.DefaultConfig())
	m.SetTracer(sim)
	if _, err := m.Run(0); err != nil {
		return nil, 0, err
	}
	if !m.Halted() {
		return nil, 0, fmt.Errorf("program did not halt")
	}
	return sim.Finish(), m.Result(), nil
}

func addMetrics(sum, m *uarch.Metrics) {
	sum.Instructions += m.Instructions
	sum.Cycles += m.Cycles
	sum.L1IMiss += m.L1IMiss
	sum.ITLBMiss += m.ITLBMiss
	sum.BranchMiss += m.BranchMiss
	sum.TakenBranches += m.TakenBranches
}

// shapesOf computes the CFG shapes of the profiled binary the way
// `vmrun -record` embeds them.
func shapesOf(f *elfx.File) (map[string]profile.FuncShape, error) {
	sess, err := bolt.OpenELF(f, bolt.WithJobs(jobs))
	if err != nil {
		return nil, err
	}
	if err := sess.Analyze(context.Background()); err != nil {
		return nil, err
	}
	return sess.Shapes()
}
