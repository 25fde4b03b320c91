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
		if last := b.LastInst(); last != nil && fn.JumpTable(last) != nil {
			swBlock = b
		}
	}
	if swBlock == nil || len(swBlock.Succs) != 2 {
		t.Fatalf("switch successors wrong: %+v", swBlock)
	}
	// CFI must be attached (framed function).
	if fn.Blocks[0].CFIIn == 0 {
		t.Error("entry CFI state missing")
	}
	// Call target symbolized.
	found := false
	for _, b := range fn.Blocks {
		for i := range b.Insts {
			if g := ctx.Func(ctx.TargetSym(fn, &b.Insts[i])); g != nil && g.Name == "leaf" {
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
	// Indices are handed out one-based in first-appearance order and
	// stay stable.
	for i, st := range []cfi.State{s1, s2, s3, s5, s6} {
		want := uint16(i + 1)
		if got := fn.InternState(st); got != want {
			t.Errorf("state %d re-interned as %d", want, got)
		}
		if *fn.StateAt(want) != st {
			t.Errorf("StateAt(%d) is not the interned state", want)
		}
	}
	if fn.StateAt(0) != nil {
		t.Error("StateAt(0) is not nil")
	}
}

// cfiFixture is a one-block function with instructions at offsets 0, 4
// and 8, and the FDE covering it that carries the given program.
func cfiFixture(insts ...cfi.PCInst) (*cfi.FDE, *BinaryFunction, *loaderScratch) {
	return cfiFixtureN(3, insts...)
}

// cfiFixtureN is cfiFixture with n four-byte instructions.
func cfiFixtureN(n int, insts ...cfi.PCInst) (*cfi.FDE, *BinaryFunction, *loaderScratch) {
	const addr = 0x1000
	b := &BasicBlock{Addr: addr, IsEntry: true}
	nop := isa.NewInst(isa.NOP)
	nop.Size = 4
	for off := uint64(0); off < uint64(4*n); off += 4 {
		b.Insts = append(b.Insts, Inst{I: nop, Off: uint32(off) + 1})
	}
	size := uint64(4 * n)
	fn := &BinaryFunction{Name: "f", Addr: addr, Size: size, Simple: true, Blocks: []*BasicBlock{b}, codeBase: addr}
	return &cfi.FDE{Start: addr, Len: uint32(size), Insts: insts}, fn, &loaderScratch{}
}

// TestCFIStatesPastIndexNonSimple: Inst.CFIIdx is one-based and 16 bits
// wide, and the replay interns at most one state more than the FDE has
// rules, so a function whose FDE has MaxCFIStates rules is left
// non-simple with a Reason naming the bound, never loaded with wrapped
// indices. One rule fewer loads, its states interned once each (the
// rules alternate between two CFA offsets).
func TestCFIStatesPastIndexNonSimple(t *testing.T) {
	for _, n := range []int{MaxCFIStates - 1, MaxCFIStates} {
		// Instruction k+1 runs with CFA offset 16 or 24 after rule k.
		rules := make([]cfi.PCInst, n)
		for k := range rules {
			rules[k] = cfi.PCInst{PC: 4 * uint32(k+1), Inst: cfi.Inst{Kind: cfi.OpDefCfaOffset, Off: int32(16 + 8*(k%2))}}
		}
		fde, fn, sc := cfiFixtureN(n+1, rules...)
		attachCFI(fn, fde, sc)
		insts := fn.Blocks[0].Insts
		if n < MaxCFIStates {
			if !fn.Simple || len(fn.cfiStates) != 3 || fn.StateAt(insts[n].CFIIdx).CfaOff != int32(16+8*((n-1)%2)) {
				t.Errorf("%d rules: Simple=%t Reason=%q states=%d, want simple with three states",
					n, fn.Simple, fn.Reason, len(fn.cfiStates))
			}
			continue
		}
		if fn.Simple || !strings.Contains(fn.Reason, "an instruction can index") || len(fn.cfiStates) != 0 || insts[0].CFIIdx != 0 {
			t.Errorf("%d rules: Simple=%t Reason=%q states=%d, want non-simple past the index bound with no states",
				n, fn.Simple, fn.Reason, len(fn.cfiStates))
		}
	}
}

// TestAttachCFIRememberWithNothingSaved: remember_state with no register
// saved, restore_state, then a save. With the map-backed State the
// remembered copy carried a nil map and the save panicked ("assignment to
// entry in nil map"); a value State cannot.
func TestAttachCFIRememberWithNothingSaved(t *testing.T) {
	fde, fn, sc := cfiFixture(
		cfi.PCInst{PC: 0, Inst: cfi.Inst{Kind: cfi.OpRememberState}},
		cfi.PCInst{PC: 4, Inst: cfi.Inst{Kind: cfi.OpRestoreState}},
		cfi.PCInst{PC: 8, Inst: cfi.Inst{Kind: cfi.OpOffset, Reg: 3, Off: -24}},
	)
	attachCFI(fn, fde, sc)
	insts := fn.Blocks[0].Insts
	if insts[0].CFIIdx != insts[1].CFIIdx || *fn.StateAt(insts[1].CFIIdx) != cfi.InitialState() {
		t.Errorf("states at offsets 0 and 4 should both be the entry state")
	}
	if off, ok := fn.StateAt(insts[2].CFIIdx).SavedAt(3); !ok || off != -24 {
		t.Errorf("state at offset 8: r3 saved at %d, %v; want -24, true", off, ok)
	}
	if n := sc.stats[StatLoadCFIBadReg]; n != 0 {
		t.Errorf("load-cfi-bad-reg = %d on a well-formed FDE", n)
	}
}

// TestAttachCFIBadRegister: rules naming a register number the state
// cannot track are skipped and counted, never indexed with.
func TestAttachCFIBadRegister(t *testing.T) {
	fde, fn, sc := cfiFixture(
		cfi.PCInst{PC: 0, Inst: cfi.Inst{Kind: cfi.OpOffset, Reg: cfi.NumRegs, Off: -16}},
		cfi.PCInst{PC: 4, Inst: cfi.Inst{Kind: cfi.OpRestore, Reg: 255}},
		cfi.PCInst{PC: 8, Inst: cfi.Inst{Kind: cfi.OpOffset, Reg: cfi.NumRegs - 1, Off: -8}},
	)
	attachCFI(fn, fde, sc)
	if n := sc.stats[StatLoadCFIBadReg]; n != 2 {
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

// TestAddressLookupBySearch: profile matching resolves addresses by binary
// search over the loader's address order — every loaded instruction is
// found in its block, an address inside an instruction or a stripped NOP
// falls to the covering block, addresses outside miss — and both the
// parallel apply and the serial call-edge tail resolve their records.
func TestAddressLookupBySearch(t *testing.T) {
	ctx := buildBinary(t)
	for _, fn := range ctx.SimpleFuncs() {
		for _, blk := range fn.Blocks {
			for i := range blk.Insts {
				in := &blk.Insts[i]
				addr := fn.InstAddr(in)
				if gb, gi := fn.instAt(addr); gb != blk || gi != in {
					t.Errorf("%s: instAt(%#x) = block %v inst %p, want block %d inst %p",
						fn.Name, addr, gb, gi, blk.Index, in)
				}
				if gb := fn.blockContaining(addr); gb != blk {
					t.Errorf("%s: blockContaining(%#x) = %v, want block %d", fn.Name, addr, gb, blk.Index)
				}
				if gb := fn.blockStarting(addr); (gb == blk) != (addr == blk.Addr) || (gb != nil && gb != blk) {
					t.Errorf("%s: blockStarting(%#x) = %v in block %d starting at %#x", fn.Name, addr, gb, blk.Index, blk.Addr)
				}
				if in.I.Size > 1 {
					if gb, gi := fn.instAt(addr + 1); gb != nil || gi != nil {
						t.Errorf("%s: instAt(%#x) resolved a mid-instruction address", fn.Name, addr+1)
					}
					if gb := fn.blockContaining(addr + 1); gb != blk {
						t.Errorf("%s: blockContaining(mid-instruction %#x) = %v, want block %d", fn.Name, addr+1, gb, blk.Index)
					}
				}
			}
		}
		if gb, gi := fn.instAt(fn.Addr - 1); gb != nil || gi != nil {
			t.Errorf("%s: instAt below the function resolved", fn.Name)
		}
		if gb := fn.blockContaining(fn.Addr - 1); gb != nil {
			t.Errorf("%s: blockContaining below the function = %v", fn.Name, gb)
		}
	}

	// One record inside switchy and a call record out of _start, so both
	// the parallel apply and the serial call-edge tail do lookups.
	fn, start := ctx.ByName["switchy"], ctx.ByName["_start"]
	off := uint64(fn.instOff(&fn.Blocks[1].Insts[0]))
	var callOff uint64
	for i := range start.Blocks[0].Insts {
		if in := &start.Blocks[0].Insts[i]; in.IsCall() {
			callOff = uint64(start.instOff(in))
		}
	}
	fd := &profile.Fdata{LBR: true, Branches: []profile.Branch{
		{From: profile.Loc{Sym: "switchy", Off: off}, To: profile.Loc{Sym: "switchy", Off: off}, Count: 1},
		{From: profile.Loc{Sym: "_start", Off: callOff}, To: profile.Loc{Sym: "switchy"}, Count: 1},
	}}
	if err := ctx.ApplyProfile(context.Background(), fd); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats["profile-call-count"] != 1 || ctx.Stats["profile-ignored-count"] != 1 {
		t.Fatalf("the two records did not both resolve: %v", ctx.Stats)
	}
}

func TestRewriteRequiresRelocs(t *testing.T) {
	ctx := buildBinary(t)
	ctx.HasRelocs = false
	if _, err := ctx.Rewrite(context.Background()); err == nil {
		t.Fatal("rewrite without relocations must fail")
	}
}
