package passes

import (
	"context"
	"encoding/binary"
	"testing"

	"gobolt/internal/bincheck"
	"gobolt/internal/cc"
	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
)

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

// rewriteChecked runs one function pass over ctx, emits the binary, and
// holds the output to bincheck (no findings) and to the input's VM
// checksum.
func rewriteChecked(t *testing.T, ctx *core.BinaryContext, want uint64, fp core.FunctionPass) {
	t.Helper()
	cx := context.Background()
	if err := core.NewPassManager(1).Run(cx, ctx, []core.Pass{core.ForEachFunction(fp)}); err != nil {
		t.Fatal(err)
	}
	res, err := ctx.Rewrite(cx)
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
		t.Errorf("%s changed the checksum: %d, want %d", fp.Name(), got, want)
	}
}

// TestSimplifyROLoadsFolds: a RIP-relative load from .rodata becomes a
// mov of the loaded value, for a quadword and for a zero-extended byte,
// while a quadword whose value needs the ten-byte movabs is left alone
// and counted as aborted, and a load from writable data is not touched.
func TestSimplifyROLoadsFolds(t *testing.T) {
	quad := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	loads := ir.NewFunc("loads", "l.mir", 1)
	loads.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpLoad, Dst: isa.RAX, Src: isa.NoReg, Sym: "small"},
		{Kind: ir.OpLoad, Dst: isa.RCX, Src: isa.NoReg, Sym: "big"},
		{Kind: ir.OpAdd, Dst: isa.RAX, Src: isa.RCX},
		{Kind: ir.OpLoadByte, Dst: isa.RDX, Src: isa.NoReg, Sym: "bytes", SymOff: 3},
		{Kind: ir.OpAdd, Dst: isa.RAX, Src: isa.RDX},
		{Kind: ir.OpLoad, Dst: isa.RCX, Src: isa.NoReg, Sym: "var"},
		{Kind: ir.OpAdd, Dst: isa.RAX, Src: isa.RCX},
	}
	loads.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}
	start := ir.NewFunc("_start", "m.mir", 1)
	start.Blocks[0].Ops = []ir.Op{{Kind: ir.OpCall, Callee: "loads", SpillReg: isa.NoReg, LandingPad: -1}}
	start.Blocks[0].Term = ir.Term{Kind: ir.TermExit}
	ctx, want := loadHandBuilt(t, &ir.Program{
		Modules: []*ir.Module{{Name: "m", Funcs: []*ir.Func{start, loads}}},
		Globals: []*ir.Global{
			{Name: "small", Data: quad(0x1234_5678), Align: 8},
			{Name: "big", Data: quad(1 << 40), Align: 8},
			{Name: "bytes", Data: []byte{1, 2, 3, 0xfe}, Align: 8},
			{Name: "var", Data: quad(7), Align: 8, Writable: true},
		},
	})
	if fn := ctx.ByName["loads"]; !fn.Simple {
		t.Fatalf("loads is not simple: %s", fn.Reason)
	}

	rewriteChecked(t, ctx, want, SimplifyROLoads{})
	if got := ctx.Stats["simplify-ro-loads"]; got != 2 {
		t.Errorf("simplify-ro-loads = %d, want 2 (the quadword and the byte)", got)
	}
	if got := ctx.Stats["simplify-ro-loads-aborted"]; got != 1 {
		t.Errorf("simplify-ro-loads-aborted = %d, want 1 (the movabs-sized quadword)", got)
	}
	var imms []int64
	loadsLeft := 0
	for _, b := range ctx.ByName["loads"].Blocks {
		for i := range b.Insts {
			switch in := &b.Insts[i]; {
			case in.I.Op == isa.MOVri:
				imms = append(imms, in.I.Imm())
			case in.I.HasMem():
				loadsLeft++
			}
		}
	}
	if len(imms) != 2 || imms[0] != 0x1234_5678 || imms[1] != 0xfe {
		t.Errorf("folded immediates %#x, want [0x12345678 0xfe]", imms)
	}
	if loadsLeft != 2 {
		t.Errorf("%d loads left, want 2 (big and the writable var)", loadsLeft)
	}
}
