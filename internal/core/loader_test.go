package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/elfx"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
)

// buildLoaderFile links a program with enough functions (plain leaves, a
// jump-table switch, callers) to give the loader's parallel phase real
// work: disassembly, CFG construction, CFI attachment, and call-target
// symbolization all run per function.
func buildLoaderFile(t testing.TB, workers int) *elfx.File {
	t.Helper()
	mod := &ir.Module{Name: "m"}

	for i := 0; i < workers; i++ {
		w := ir.NewFunc(fmt.Sprintf("w%03d", i), "w.mir", int32(i+1))
		w.SavedRegs = []isa.Reg{isa.RBX}
		w.Blocks[0].Ops = []ir.Op{
			{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
			{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: int64(i + 1)},
			{Kind: ir.OpShlImm, Dst: isa.RAX, Imm: 1},
		}
		w.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}
		mod.Funcs = append(mod.Funcs, w)
	}

	sw := ir.NewFunc("switchy", "s.mir", 1)
	c0 := sw.AddBlock()
	c1 := sw.AddBlock()
	ret := sw.AddBlock()
	sw.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RCX, Src: isa.RDI},
		{Kind: ir.OpAndImm, Dst: isa.RCX, Imm: 1},
		{Kind: ir.OpCall, Callee: "w000", SpillReg: isa.NoReg, LandingPad: -1},
	}
	sw.Blocks[0].Term = ir.Term{Kind: ir.TermSwitch, IndexReg: isa.RCX,
		Targets: []int{c0.Index, c1.Index}, PIC: true}
	c0.Ops = []ir.Op{{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 10}}
	c0.Term = ir.Term{Kind: ir.TermJump, Then: ret.Index}
	c1.Ops = []ir.Op{{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 20}}
	c1.Term = ir.Term{Kind: ir.TermJump, Then: ret.Index}
	ret.Term = ir.Term{Kind: ir.TermReturn}
	mod.Funcs = append(mod.Funcs, sw)

	start := ir.NewFunc("_start", "m.mir", 1)
	var ops []ir.Op
	for i := 0; i < workers; i++ {
		ops = append(ops,
			ir.Op{Kind: ir.OpMovImm, Dst: isa.RDI, Imm: int64(i)},
			ir.Op{Kind: ir.OpCall, Callee: fmt.Sprintf("w%03d", i), SpillReg: isa.NoReg, LandingPad: -1})
	}
	ops = append(ops, ir.Op{Kind: ir.OpCall, Callee: "switchy", SpillReg: isa.NoReg, LandingPad: -1})
	start.Blocks[0].Ops = ops
	start.Blocks[0].Term = ir.Term{Kind: ir.TermExit}
	mod.Funcs = append(mod.Funcs, start)

	p := &ir.Program{Modules: []*ir.Module{mod}}
	p.Finalize()
	opts := cc.DefaultOptions()
	opts.TinyInlineOps = 1 // keep the leaves out-of-line
	objs, err := cc.Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.File
}

// funcShape flattens everything the loader derives for one function into
// a comparable value.
type funcShape struct {
	Name      string
	Addr      uint64
	Simple    bool
	Reason    string
	Blocks    int
	Insts     int
	JTs       int
	CFIStates int
	HasLSDA   bool
	Succs     []int
}

func loaderShapes(ctx *BinaryContext) []funcShape {
	var out []funcShape
	for _, fn := range ctx.Funcs {
		s := funcShape{
			Name: fn.Name, Addr: fn.Addr, Simple: fn.Simple, Reason: fn.Reason,
			Blocks: len(fn.Blocks), JTs: len(fn.JTs),
			CFIStates: len(fn.cfiStates), HasLSDA: fn.HasLSDA,
		}
		for _, b := range fn.Blocks {
			s.Insts += len(b.Insts)
			s.Succs = append(s.Succs, len(b.Succs))
		}
		out = append(out, s)
	}
	return out
}

// TestNewContextDeterministicAcrossJobs is the parallel loader's
// contract: NewContext yields identical function lists, block/edge
// structure, CFI interning, and Stats for any worker count. Under -race
// it also exercises the fan-out phase for data races.
func TestNewContextDeterministicAcrossJobs(t *testing.T) {
	f := buildLoaderFile(t, 24)
	opts := DefaultOptions()
	opts.Jobs = 1
	base, err := NewContext(context.Background(), f, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseShapes := loaderShapes(base)
	if len(baseShapes) < 24 {
		t.Fatalf("expected >= 24 discovered functions, got %d", len(baseShapes))
	}
	for _, jobs := range []int{2, 8} {
		opts.Jobs = jobs
		got, err := NewContext(context.Background(), f, opts)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(baseShapes, loaderShapes(got)) {
			t.Errorf("jobs=%d: loader output differs from jobs=1:\n  jobs=1: %+v\n  jobs=%d: %+v",
				jobs, baseShapes, jobs, loaderShapes(got))
		}
		if !reflect.DeepEqual(base.Stats, got.Stats) {
			t.Errorf("jobs=%d: loader stats diverge:\n  jobs=1: %v\n  jobs=%d: %v",
				jobs, base.Stats, jobs, got.Stats)
		}
		if len(got.Timings) != 2 ||
			got.Timings[0].Name != "load:discover" || got.Timings[0].Group != "load" ||
			got.Timings[1].Name != "load:disasm+cfg" || got.Timings[1].Group != "load" {
			t.Fatalf("jobs=%d: bad load timings %+v", jobs, got.Timings)
		}
		if lt := got.Timings[1]; lt.Funcs != len(got.Funcs) || !lt.Parallel || lt.Jobs != jobs {
			t.Errorf("jobs=%d: disasm+cfg phase not parallel: %+v", jobs, lt)
		}
	}
	// Loader stat shards must have merged exactly.
	if got := base.Stats["load-simple"] + base.Stats["load-non-simple"]; got != int64(len(base.Funcs)) {
		t.Errorf("loader stats cover %d functions, want %d (stats: %v)", got, len(base.Funcs), base.Stats)
	}
}
