package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/cfi"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
	"gobolt/internal/profile"
)

// buildBinary links a little two-function program with jump table and
// exception metadata for discovery tests.
func buildBinary(t *testing.T) *BinaryContext {
	t.Helper()
	leaf := ir.NewFunc("leaf", "l.mir", 4)
	leaf.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 1},
		{Kind: ir.OpShlImm, Dst: isa.RAX, Imm: 2},
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 3},
	}
	leaf.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}

	f := ir.NewFunc("switchy", "s.mir", 10)
	f.SavedRegs = []isa.Reg{isa.RBX}
	c0 := f.AddBlock()
	c1 := f.AddBlock()
	ret := f.AddBlock()
	f.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RCX, Src: isa.RDI},
		{Kind: ir.OpAndImm, Dst: isa.RCX, Imm: 1},
		{Kind: ir.OpCall, Callee: "leaf", SpillReg: isa.NoReg, LandingPad: -1},
	}
	f.Blocks[0].Term = ir.Term{Kind: ir.TermSwitch, IndexReg: isa.RCX,
		Targets: []int{c0.Index, c1.Index}, PIC: true}
	c0.Ops = []ir.Op{{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 10}}
	c0.Term = ir.Term{Kind: ir.TermJump, Then: ret.Index}
	c1.Ops = []ir.Op{{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 20}}
	c1.Term = ir.Term{Kind: ir.TermJump, Then: ret.Index}
	ret.Term = ir.Term{Kind: ir.TermReturn}

	start := ir.NewFunc("_start", "m.mir", 1)
	start.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RDI, Imm: 3},
		{Kind: ir.OpCall, Callee: "switchy", SpillReg: isa.NoReg, LandingPad: -1},
	}
	start.Blocks[0].Term = ir.Term{Kind: ir.TermExit}

	p := &ir.Program{Modules: []*ir.Module{{Name: "m", Funcs: []*ir.Func{start, f, leaf}}}}
	p.Finalize()
	opts := cc.DefaultOptions()
	opts.TinyInlineOps = 1 // keep leaf out-of-line
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

func TestDiscoveryAndCFG(t *testing.T) {
	ctx := buildBinary(t)
	fn := ctx.ByName["switchy"]
	if fn == nil || !fn.Simple {
		t.Fatalf("switchy not simple: %+v", fn)
	}
	if len(fn.JTs) != 1 || !fn.JTs[0].PIC || len(fn.JTs[0].Targets) != 2 {
		t.Fatalf("PIC jump table not recovered: %+v", fn.JTs)
	}
	// The switch block must have two successors.
	var swBlock *BasicBlock
	for _, b := range fn.Blocks {
		if last := b.LastInst(); last != nil && last.JT != nil {
			swBlock = b
		}
	}
	if swBlock == nil || len(swBlock.Succs) != 2 {
		t.Fatalf("switch successors wrong: %+v", swBlock)
	}
	// CFI must be attached (framed function).
	if fn.Blocks[0].CFIIn < 0 {
		t.Error("entry CFI state missing")
	}
	// Call target symbolized.
	found := false
	for _, b := range fn.Blocks {
		for i := range b.Insts {
			if b.Insts[i].TargetSym == "leaf" {
				found = true
			}
		}
	}
	if !found {
		t.Error("call to leaf not symbolized")
	}
}

func TestPrintCFGFormat(t *testing.T) {
	ctx := buildBinary(t)
	var buf bytes.Buffer
	ctx.PrintCFG(&buf, ctx.ByName["switchy"])
	out := buf.String()
	for _, want := range []string{
		`Binary Function "switchy"`,
		"IsSimple    : 1",
		"BB Count",
		"Exec Count",
		"Successors:",
		"Entry Point",
		"s.mir:10", // source annotation
	} {
		if !strings.Contains(out, want) {
			t.Errorf("CFG dump missing %q:\n%s", want, out)
		}
	}
}

func TestStateInterning(t *testing.T) {
	fn := &BinaryFunction{}
	s1 := cfi.InitialState()
	a := fn.InternState(s1)
	b := fn.InternState(s1)
	if a != b {
		t.Fatal("identical states must intern to one index")
	}
	s2 := cfi.InitialState()
	s2.Save(3, -24)
	if fn.InternState(s2) == a {
		t.Fatal("distinct states must not collide")
	}
	// Equality must not depend on the order the registers were saved in,
	// nor on a save that was undone again.
	s3 := cfi.InitialState()
	s3.Save(3, -24)
	s3.Save(6, -16)
	s3.Save(12, -8)
	s4 := cfi.InitialState()
	s4.Save(12, -8)
	s4.Save(9, -32)
	s4.Save(6, -16)
	s4.Restore(9)
	s4.Save(3, -24)
	if fn.InternState(s3) != fn.InternState(s4) {
		t.Fatal("saved-register order must not affect interning")
	}
	// Same registers, one differing offset: distinct.
	s5 := s3
	s5.Save(12, -80)
	if fn.InternState(s5) == fn.InternState(s3) {
		t.Fatal("states differing only in a saved offset must not collide")
	}
	// Negative CFA offsets are values like any other.
	s6 := cfi.InitialState()
	s6.CfaOff = -8
	if fn.InternState(s6) == fn.InternState(cfi.InitialState()) {
		t.Fatal("states differing in CFA offset must not collide")
	}
	// Indices are handed out in first-appearance order and stay stable.
	for want, st := range []cfi.State{s1, s2, s3, s5, s6} {
		if got := fn.InternState(st); got != int32(want) {
			t.Errorf("state %d re-interned as %d", want, got)
		}
		if *fn.StateAt(int32(want)) != st {
			t.Errorf("StateAt(%d) is not the interned state", want)
		}
	}
}

// cfiFixture is a one-block function with instructions at offsets 0, 4
// and 8, covered by an FDE carrying the given program.
func cfiFixture(insts ...cfi.PCInst) (*BinaryContext, *BinaryFunction, *loaderScratch) {
	const addr = 0x1000
	b := &BasicBlock{Addr: addr, IsEntry: true}
	for off := uint64(0); off < 12; off += 4 {
		b.Insts = append(b.Insts, Inst{I: isa.NewInst(isa.NOP), Size: 4, Addr: addr + off, CFIIdx: -1})
	}
	fn := &BinaryFunction{Name: "f", Addr: addr, Size: 12, Simple: true, Blocks: []*BasicBlock{b}}
	ctx := &BinaryContext{fdes: []cfi.FDE{{Start: addr, Len: 12, Insts: insts}}}
	sc := &loaderScratch{}
	sc.init()
	return ctx, fn, sc
}

// TestAttachCFIRememberWithNothingSaved: remember_state with no register
// saved, restore_state, then a save. With the map-backed State the
// remembered copy carried a nil map and the save panicked ("assignment to
// entry in nil map"); a value State cannot.
func TestAttachCFIRememberWithNothingSaved(t *testing.T) {
	ctx, fn, sc := cfiFixture(
		cfi.PCInst{PC: 0, Inst: cfi.Inst{Kind: cfi.OpRememberState}},
		cfi.PCInst{PC: 4, Inst: cfi.Inst{Kind: cfi.OpRestoreState}},
		cfi.PCInst{PC: 8, Inst: cfi.Inst{Kind: cfi.OpOffset, Reg: 3, Off: -24}},
	)
	ctx.attachCFI(fn, sc)
	insts := fn.Blocks[0].Insts
	if insts[0].CFIIdx != insts[1].CFIIdx || *fn.StateAt(insts[1].CFIIdx) != cfi.InitialState() {
		t.Errorf("states at offsets 0 and 4 should both be the entry state")
	}
	if off, ok := fn.StateAt(insts[2].CFIIdx).SavedAt(3); !ok || off != -24 {
		t.Errorf("state at offset 8: r3 saved at %d, %v; want -24, true", off, ok)
	}
	if n := sc.stats["load-cfi-bad-reg"]; n != 0 {
		t.Errorf("load-cfi-bad-reg = %d on a well-formed FDE", n)
	}
}

// TestAttachCFIBadRegister: rules naming a register number the state
// cannot track are skipped and counted, never indexed with.
func TestAttachCFIBadRegister(t *testing.T) {
	ctx, fn, sc := cfiFixture(
		cfi.PCInst{PC: 0, Inst: cfi.Inst{Kind: cfi.OpOffset, Reg: cfi.NumRegs, Off: -16}},
		cfi.PCInst{PC: 4, Inst: cfi.Inst{Kind: cfi.OpRestore, Reg: 255}},
		cfi.PCInst{PC: 8, Inst: cfi.Inst{Kind: cfi.OpOffset, Reg: cfi.NumRegs - 1, Off: -8}},
	)
	ctx.attachCFI(fn, sc)
	if n := sc.stats["load-cfi-bad-reg"]; n != 2 {
		t.Errorf("load-cfi-bad-reg = %d, want 2", n)
	}
	insts := fn.Blocks[0].Insts
	if *fn.StateAt(insts[1].CFIIdx) != cfi.InitialState() {
		t.Errorf("out-of-range rules changed the state: %+v", *fn.StateAt(insts[1].CFIIdx))
	}
	if _, ok := fn.StateAt(insts[2].CFIIdx).SavedAt(cfi.NumRegs - 1); !ok {
		t.Errorf("the highest trackable register was not saved")
	}
}

// TestAddressIndexLifetime: the address index is built on first lookup,
// ApplyProfile releases every index it caused, and a lookup after a pass
// has inserted instructions sees the new positions (synthesized
// instructions excluded) because nothing stale was left to answer it.
func TestAddressIndexLifetime(t *testing.T) {
	ctx := buildBinary(t)
	fn := ctx.ByName["switchy"]
	if fn.instIndex != nil {
		t.Fatal("loader built the address index eagerly")
	}
	b := fn.Blocks[1]
	addr := b.Insts[0].Addr
	if gb, gi := fn.InstAt(addr); gb != b || gi != &b.Insts[0] {
		t.Fatalf("InstAt(%#x) before the edit = %v, %v", addr, gb, gi)
	}
	if fn.instIndex == nil {
		t.Fatal("lookup did not build the index")
	}
	// One record inside switchy and a call record out of _start, so both
	// the parallel apply and the serial call-edge tail do lookups.
	start := ctx.ByName["_start"]
	var callOff uint64
	for i := range start.Blocks[0].Insts {
		if in := &start.Blocks[0].Insts[i]; in.IsCall() {
			callOff = in.Addr - start.Addr
		}
	}
	fd := &profile.Fdata{LBR: true, Branches: []profile.Branch{
		{From: profile.Loc{Sym: "switchy", Off: addr - fn.Addr}, To: profile.Loc{Sym: "switchy", Off: addr - fn.Addr}, Count: 1},
		{From: profile.Loc{Sym: "_start", Off: callOff}, To: profile.Loc{Sym: "switchy"}, Count: 1},
	}}
	if err := ctx.ApplyProfile(context.Background(), fd); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats["profile-call-count"] != 1 || ctx.Stats["profile-ignored-count"] != 1 {
		t.Fatalf("the two records did not both resolve: %v", ctx.Stats)
	}
	for _, f := range ctx.Funcs {
		if f.instIndex != nil {
			t.Errorf("%s: address index outlived ApplyProfile", f.Name)
		}
	}

	// What shrink-wrapping does to its home block: a synthesized
	// instruction (Addr 0) goes in front, everything else shifts by one.
	push := Inst{I: isa.NewInst(isa.PUSH), CFIIdx: b.Insts[0].CFIIdx}
	push.I.R1 = isa.RBX
	b.Insts = append([]Inst{push}, b.Insts...)

	for _, blk := range fn.Blocks {
		for i := range blk.Insts {
			in := &blk.Insts[i]
			if in.Addr == 0 {
				continue
			}
			if gb, gi := fn.InstAt(in.Addr); gb != blk || gi != in {
				t.Errorf("InstAt(%#x) after the edit: block %v inst %p, want block %d inst %p",
					in.Addr, gb, gi, blk.Index, in)
			}
			if gb := fn.BlockContaining(in.Addr); gb != blk {
				t.Errorf("BlockContaining(%#x) after the edit = %v, want block %d", in.Addr, gb, blk.Index)
			}
		}
	}
	if gb, gi := fn.InstAt(0); gb != nil || gi != nil {
		t.Error("the synthesized instruction is reachable through address 0")
	}
	// An address inside an instruction falls back to the covering block.
	if gb := fn.BlockContaining(addr + 1); gb != b {
		t.Errorf("BlockContaining(mid-instruction) = %v, want block %d", gb, b.Index)
	}
}

func TestRewriteRequiresRelocs(t *testing.T) {
	ctx := buildBinary(t)
	ctx.HasRelocs = false
	if _, err := ctx.Rewrite(context.Background()); err == nil {
		t.Fatal("rewrite without relocations must fail")
	}
}
