package passes

import (
	"context"
	"reflect"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/core"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
)

// TestInlineSmallKeepsTablesApart: Inst.JT and Inst.LP index tables of
// the owning function, so instructions spliced in from a callee must not
// bring indices along, the caller's own invoke in the same block must
// keep its handler, and — the slab contract — growing the rebuilt block
// must leave the neighbouring block's slab window alone.
func TestInlineSmallKeepsTablesApart(t *testing.T) {
	tiny := ir.NewFunc("tiny", "t.mir", 1)
	tiny.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 3},
	}
	tiny.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}

	thrower := ir.NewFunc("thrower", "t.mir", 10)
	thrower.Blocks[0].Ops = tiny.Blocks[0].Ops // too big for cc to inline
	thrower.Blocks[0].Term = ir.Term{Kind: ir.TermThrow, LandingPad: -1}

	host := ir.NewFunc("host", "h.mir", 1)
	host.SavedRegs = []isa.Reg{isa.RBX}
	next, lp := host.AddBlock(), host.AddBlock()
	host.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpCall, Callee: "tiny", SpillReg: isa.NoReg, LandingPad: -1},
		{Kind: ir.OpMov, Dst: isa.RBX, Src: isa.RAX},
		{Kind: ir.OpCall, Callee: "thrower", SpillReg: isa.NoReg, LandingPad: lp.Index},
	}
	host.Blocks[0].Term = ir.Term{Kind: ir.TermJump, Then: next.Index}
	next.Ops = []ir.Op{{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RBX}}
	next.Term = ir.Term{Kind: ir.TermReturn}
	lp.Ops = []ir.Op{{Kind: ir.OpMovImm, Dst: isa.RBX, Imm: 7}}
	lp.Term = ir.Term{Kind: ir.TermJump, Then: next.Index}

	start := ir.NewFunc("_start", "m.mir", 1)
	start.Blocks[0].Ops = []ir.Op{{Kind: ir.OpCall, Callee: "host", SpillReg: isa.NoReg, LandingPad: -1}}
	start.Blocks[0].Term = ir.Term{Kind: ir.TermExit}

	p := &ir.Program{Modules: []*ir.Module{{Name: "m", Funcs: []*ir.Func{start, host, tiny, thrower}}}}
	p.Finalize()
	copts := cc.DefaultOptions()
	copts.TinyInlineOps = 1 // leave tiny for the binary-level inliner
	objs, err := cc.Compile(p, copts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := core.NewContext(context.Background(), res.File, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fn := ctx.ByName["host"]
	if !fn.Simple || !fn.HasLSDA {
		t.Fatalf("host: simple=%v (%s) lsda=%v", fn.Simple, fn.Reason, fn.HasLSDA)
	}
	b := fn.Blocks[0]
	invoke := func() (*core.BasicBlock, int32) {
		t.Helper()
		for i := range b.Insts {
			if lp, action := fn.LandingPad(&b.Insts[i]); lp != nil {
				return lp, action
			}
		}
		t.Fatal("host's entry block has no invoke")
		return nil, 0
	}
	wantLP, wantAction := invoke()

	if err := (InlineSmall{}).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats["inline-small"] != 1 {
		t.Fatalf("inline-small = %d, want 1 (the call to tiny)", ctx.Stats["inline-small"])
	}
	spliced := 0
	for i := range b.Insts {
		in := &b.Insts[i]
		if fn.InstAddr(in) != 0 {
			continue
		}
		spliced++
		if in.JT() != 0 || in.LP() != 0 {
			t.Errorf("spliced instruction %d indexes the caller's tables: JT %d LP %d", i, in.JT(), in.LP())
		}
	}
	if spliced == 0 {
		t.Fatal("no spliced instructions in host's entry block")
	}
	if lp, action := invoke(); lp != wantLP || action != wantAction {
		t.Errorf("invoke's handler after inlining = %v/%d, want %v/%d", lp, action, wantLP, wantAction)
	}

	neighbour := fn.Blocks[1]
	before := append([]core.Inst(nil), neighbour.Insts...)
	for len(b.Insts) < cap(b.Insts) {
		b.Insts = append(b.Insts, b.Insts[0])
	}
	b.Insts = append(b.Insts, b.Insts[0])
	if !reflect.DeepEqual(before, neighbour.Insts) {
		t.Error("growing the rebuilt block clobbered the next block's instructions")
	}
	if lp, action := invoke(); lp != wantLP || action != wantAction {
		t.Errorf("invoke's handler after the append = %v/%d, want %v/%d", lp, action, wantLP, wantAction)
	}
}
