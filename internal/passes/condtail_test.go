package passes

import (
	"context"
	"slices"
	"testing"

	"gobolt/internal/bincheck"
	"gobolt/internal/cc"
	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
)

// TestConditionalTailCallRoundTrip: a function whose conditional branch
// goes straight to another function (`jcc target`, no block of its own
// for the taken side) emits to a binary bincheck accepts and the VM runs
// to the input's checksum. Both arms run, so the checksum covers the
// branch taken and not taken.
func TestConditionalTailCallRoundTrip(t *testing.T) {
	target := ir.NewFunc("target", "t.mir", 1)
	target.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 100},
	}
	target.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}

	cond := ir.NewFunc("cond", "c.mir", 1)
	ret, stub := cond.AddBlock(), cond.AddBlock()
	cond.Blocks[0].Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondE, CmpReg: isa.RDI, CmpImm: 0,
		Then: stub.Index, Else: ret.Index}
	ret.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 1},
	}
	ret.Term = ir.Term{Kind: ir.TermReturn}
	stub.Term = ir.Term{Kind: ir.TermTailCall, Callee: "target"}

	start := ir.NewFunc("_start", "m.mir", 1)
	start.SavedRegs = []isa.Reg{isa.RBX}
	start.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RDI, Imm: 0},
		{Kind: ir.OpCall, Callee: "cond", SpillReg: isa.NoReg, LandingPad: -1},
		{Kind: ir.OpMov, Dst: isa.RBX, Src: isa.RAX},
		{Kind: ir.OpMovImm, Dst: isa.RDI, Imm: 5},
		{Kind: ir.OpCall, Callee: "cond", SpillReg: isa.NoReg, LandingPad: -1},
		{Kind: ir.OpShlImm, Dst: isa.RAX, Imm: 8},
		{Kind: ir.OpAdd, Dst: isa.RAX, Src: isa.RBX},
	}
	start.Blocks[0].Term = ir.Term{Kind: ir.TermExit}

	ctx, want := loadHandBuilt(t, &ir.Program{
		Modules: []*ir.Module{{Name: "m", Funcs: []*ir.Func{start, cond, target}}},
	})
	if want != 6<<8+100 {
		t.Fatalf("input checksum %d, want %d: the program did not take both arms", want, 6<<8+100)
	}
	fn := ctx.ByName["cond"]
	if !fn.Simple || len(fn.Blocks) != 3 {
		t.Fatalf("cond: simple=%v (%s), %d blocks, want 3", fn.Simple, fn.Reason, len(fn.Blocks))
	}

	// Retarget the entry's jcc straight at target and drop the stub, the
	// shape a compiler emits for a conditional tail call.
	entry, tail := fn.Blocks[0], fn.Blocks[0].Succs[0].To
	jcc := entry.LastInst()
	if jcc == nil || jcc.I.Op != isa.JCC || len(tail.Insts) != 1 || ctx.TargetSym(fn, &tail.Insts[0]) != ctx.ByName["target"].Ref() {
		t.Fatalf("cond is not `jcc stub; ...; stub: jmp target`")
	}
	jcc.I.SetTargetAddr(tail.Insts[0].I.TargetAddr())
	entry.Succs = entry.Succs[1:]
	fn.Blocks = slices.DeleteFunc(fn.Blocks, func(b *core.BasicBlock) bool { return b == tail })
	for i, b := range fn.Blocks {
		b.Index = i
	}

	rewriteChecked(t, ctx, want)
}

// loadHandBuilt compiles and links a hand-built program with cc's own
// inliner held back, runs it once, and loads it without a profile.
func loadHandBuilt(t *testing.T, p *ir.Program) (*core.BinaryContext, uint64) {
	t.Helper()
	p.Finalize()
	copts := cc.DefaultOptions()
	copts.TinyInlineOps = 1
	objs, err := cc.Compile(p, copts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true})
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, res.File)
	ctx, err := core.NewContext(context.Background(), res.File, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ctx, want
}

// rewriteChecked emits ctx and holds the output to bincheck (no
// findings) and to the input's VM checksum.
func rewriteChecked(t *testing.T, ctx *core.BinaryContext, want uint64) {
	t.Helper()
	res, err := ctx.Rewrite(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	image, err := res.File.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	v, err := bincheck.Check(image)
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range v.Findings {
		t.Errorf("bincheck: %+v", fi)
	}
	out, err := elfx.Read(image)
	if err != nil {
		t.Fatal(err)
	}
	if got := run(t, out); got != want {
		t.Errorf("the rewrite changed the checksum: %d, want %d", got, want)
	}
}
