package passes

import (
	"testing"

	"gobolt/internal/ir"
	"gobolt/internal/isa"
)

// TestSCTCRetargetsConditionalTailCall: a conditional branch to a block
// that only tail-calls another function becomes `jcc` straight to that
// function, and the stub block goes. Both arms run, so the checksum
// covers the rewritten branch taken and not taken.
func TestSCTCRetargetsConditionalTailCall(t *testing.T) {
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

	rewriteChecked(t, ctx, want, SCTC{})
	if got := ctx.Stats["sctc"]; got != 1 {
		t.Errorf("sctc = %d, want 1", got)
	}
	if len(fn.Blocks) != 2 {
		t.Fatalf("cond has %d blocks after sctc, want 2 (the stub gone)", len(fn.Blocks))
	}
	jcc := fn.Blocks[0].LastInst()
	if jcc == nil || jcc.I.Op != isa.JCC || jcc.TargetSym != ctx.ByName["target"].Ref() {
		t.Errorf("cond's entry ends in %+v, want jcc to target", jcc)
	}
	for i, b := range fn.Blocks {
		if b.Index != i {
			t.Errorf("block %d has Index %d", i, b.Index)
		}
	}
}
