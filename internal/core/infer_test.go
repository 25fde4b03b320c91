package core

import (
	"context"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
	"gobolt/internal/profile"
)

// buildSizedBinary links `chain`, whose 16-instruction entry falls into a
// 1-instruction block (a lone jump) on the way to a 1-instruction return,
// with a never-taken 1-instruction side block, and `wide`, one block of
// 40 instructions.
func buildSizedBinary(t *testing.T) *BinaryContext {
	t.Helper()
	chain := ir.NewFunc("chain", "c.mir", 10)
	mid, side, tail := chain.AddBlock(), chain.AddBlock(), chain.AddBlock()
	for i := 0; i < 14; i++ {
		chain.Blocks[0].Ops = append(chain.Blocks[0].Ops, ir.Op{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 1})
	}
	chain.Blocks[0].Term = ir.Term{Kind: ir.TermBranch, CmpReg: isa.RDI, CmpImm: 0,
		Cc: isa.CondL, Then: side.Index, Else: mid.Index}
	mid.Term = ir.Term{Kind: ir.TermJump, Then: tail.Index}
	side.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 3}}
	side.Term = ir.Term{Kind: ir.TermJump, Then: tail.Index}
	tail.Term = ir.Term{Kind: ir.TermReturn}

	wide := ir.NewFunc("wide", "w.mir", 40)
	for i := 0; i < 39; i++ {
		wide.Blocks[0].Ops = append(wide.Blocks[0].Ops, ir.Op{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 1})
	}
	wide.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}

	start := ir.NewFunc("_start", "m.mir", 1)
	start.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpCall, Callee: "chain", SpillReg: isa.NoReg, LandingPad: -1},
		{Kind: ir.OpCall, Callee: "wide", SpillReg: isa.NoReg, LandingPad: -1},
	}
	start.Blocks[0].Term = ir.Term{Kind: ir.TermExit}

	p := &ir.Program{Modules: []*ir.Module{{Name: "m", Funcs: []*ir.Func{start, chain, wide}}}}
	p.Finalize()
	opts := cc.DefaultOptions()
	opts.TinyInlineOps = 1
	objs, err := cc.Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(context.Background(), res.File, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// sampleUniformly is what a sampler firing every period retired
// instructions records, without skid, for a block executed execs times:
// execs/period samples on each of its instructions.
func sampleUniformly(fn *BinaryFunction, b *BasicBlock, execs, period uint64) []profile.Sample {
	var out []profile.Sample
	for i := range b.Insts {
		out = append(out, profile.Sample{
			At:    profile.Loc{Sym: fn.Name, Off: uint64(fn.instOff(&b.Insts[i]))},
			Count: execs / period,
		})
	}
	return out
}

// TestSampleNormalisation: a PC sample is time, not an execution. Blocks
// of 1 and 16 instructions that ran equally often must infer equal
// counts, though the long one drew sixteen times the samples; a lone
// sample in a long block must survive the division; and the function
// count still comes from the entry in-flow.
func TestSampleNormalisation(t *testing.T) {
	const execs, period = 1 << 20, 512

	t.Run("equal executions, unequal sizes", func(t *testing.T) {
		ctx := buildSizedBinary(t)
		chain := ctx.ByName["chain"]
		if chain == nil || !chain.Simple || len(chain.Blocks) != 4 {
			t.Fatalf("chain not usable: %+v", chain)
		}
		entry, mid, side, tail := chain.Blocks[0], chain.Blocks[1], chain.Blocks[2], chain.Blocks[3]
		if len(entry.Insts) != 16 || len(mid.Insts) != 1 || len(tail.Insts) != 1 {
			t.Fatalf("block sizes %d/%d/%d, the test wants 16/1/1",
				len(entry.Insts), len(mid.Insts), len(tail.Insts))
		}
		fd := &profile.Fdata{}
		for _, b := range []*BasicBlock{entry, mid, tail} {
			fd.Samples = append(fd.Samples, sampleUniformly(chain, b, execs, period)...)
		}
		applyTo(t, ctx, fd)
		if entry.ExecCount == 0 || entry.ExecCount != mid.ExecCount || mid.ExecCount != tail.ExecCount {
			t.Errorf("blocks that ran equally often inferred %d / %d / %d",
				entry.ExecCount, mid.ExecCount, tail.ExecCount)
		}
		if side.ExecCount != 0 {
			t.Errorf("never-executed side block inferred %d", side.ExecCount)
		}
		if chain.ExecCount != entry.ExecCount {
			t.Errorf("ExecCount %d, want the entry count %d", chain.ExecCount, entry.ExecCount)
		}
		if chain.ProfileAcc != 1.0 {
			t.Errorf("accuracy %v, want 1.0", chain.ProfileAcc)
		}
	})

	t.Run("one sample in forty instructions", func(t *testing.T) {
		ctx := buildSizedBinary(t)
		wide := ctx.ByName["wide"]
		if wide == nil || !wide.Simple || len(wide.Blocks) != 1 || len(wide.Blocks[0].Insts) != 40 {
			t.Fatalf("wide not usable: %+v", wide)
		}
		applyTo(t, ctx, &profile.Fdata{Samples: []profile.Sample{
			{At: profile.Loc{Sym: "wide", Off: 8}, Count: 1},
		}})
		if wide.Blocks[0].ExecCount == 0 || wide.ExecCount == 0 {
			t.Errorf("a sampled block rounded to zero: block %d, function %d",
				wide.Blocks[0].ExecCount, wide.ExecCount)
		}
	})

	// The proportional estimator (-infer-flow=never) reads the same
	// normalised block counts.
	t.Run("proportional estimator", func(t *testing.T) {
		ctx := buildSizedBinary(t)
		ctx.Opts.InferFlow = InferNever
		chain := ctx.ByName["chain"]
		fd := &profile.Fdata{}
		for _, b := range []*BasicBlock{chain.Blocks[0], chain.Blocks[1]} {
			fd.Samples = append(fd.Samples, sampleUniformly(chain, b, execs, period)...)
		}
		applyTo(t, ctx, fd)
		if a, b := chain.Blocks[0].ExecCount, chain.Blocks[1].ExecCount; a == 0 || a != b {
			t.Errorf("blocks that ran equally often carry %d and %d", a, b)
		}
	})

	t.Run("short unsampled entry", func(t *testing.T) {
		ctx := buildProfBinary(t, 0)
		hot := ctx.ByName["hot"]
		fd := &profile.Fdata{}
		fd.Samples = append(fd.Samples, sampleUniformly(hot, hot.Blocks[1], 3*execs, period)...)
		fd.Samples = append(fd.Samples, sampleUniformly(hot, hot.Blocks[2], 2*execs, period)...)
		applyTo(t, ctx, fd)
		var entryOut uint64
		for _, e := range hot.Blocks[0].Succs {
			entryOut += e.Count
		}
		if hot.ExecCount == 0 || hot.ExecCount != entryOut {
			t.Errorf("ExecCount = %d, want entry out-flow %d", hot.ExecCount, entryOut)
		}
		if a, b := hot.Blocks[1].ExecCount, hot.Blocks[2].ExecCount; 2*a != 3*b {
			t.Errorf("arms that ran 3:2 inferred %d and %d", a, b)
		}
	})
}
