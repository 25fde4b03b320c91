package vm

import (
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/elfx"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
)

// buildProgram finalizes, compiles and links a MIR program with the
// given options.
func buildProgram(t *testing.T, p *ir.Program, copts cc.Options, lopts ld.Options) *elfx.File {
	t.Helper()
	p.Finalize()
	objs, err := cc.Compile(p, copts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := ld.Link(objs, lopts)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return res.File
}

// runToHalt executes the program and returns RAX.
func runToHalt(t *testing.T, f *elfx.File) uint64 {
	t.Helper()
	m, err := New(f)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := m.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !m.Halted() {
		t.Fatalf("did not halt")
	}
	return m.Result()
}

// arithProgram: _start computes ((5+7)*3 - 6) ^ 2 = 30 xor 2 = 28.
func arithProgram() *ir.Program {
	f := ir.NewFunc("_start", "main.mir", 1)
	b := f.Blocks[0]
	b.Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 5},
		{Kind: ir.OpMovImm, Dst: isa.RCX, Imm: 7},
		{Kind: ir.OpAdd, Dst: isa.RAX, Src: isa.RCX},
		{Kind: ir.OpMovImm, Dst: isa.RDX, Imm: 3},
		{Kind: ir.OpMul, Dst: isa.RAX, Src: isa.RDX},
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: -6},
		{Kind: ir.OpMovImm, Dst: isa.RCX, Imm: 2},
		{Kind: ir.OpXor, Dst: isa.RAX, Src: isa.RCX},
	}
	b.Term = ir.Term{Kind: ir.TermExit}
	return &ir.Program{Modules: []*ir.Module{{Name: "main", Funcs: []*ir.Func{f}}}}
}

func TestArithmetic(t *testing.T) {
	f := buildProgram(t, arithProgram(), cc.DefaultOptions(), ld.Options{})
	if got := runToHalt(t, f); got != 28 {
		t.Fatalf("result = %d, want 28", got)
	}
}

// callProgram: _start calls add3(10) three nested ways and sums.
func callProgram() *ir.Program {
	callee := ir.NewFunc("add3", "lib.mir", 10)
	cb := callee.Blocks[0]
	cb.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 3},
	}
	cb.Term = ir.Term{Kind: ir.TermReturn}

	outer := ir.NewFunc("outer", "lib.mir", 20)
	outer.SavedRegs = []isa.Reg{isa.RBX}
	ob := outer.Blocks[0]
	ob.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RBX, Src: isa.RDI},
		{Kind: ir.OpCall, Callee: "add3", SpillReg: isa.NoReg, LandingPad: -1},
		{Kind: ir.OpMov, Dst: isa.RDI, Src: isa.RAX},
		{Kind: ir.OpCall, Callee: "add3", SpillReg: isa.NoReg, LandingPad: -1},
		{Kind: ir.OpAdd, Dst: isa.RAX, Src: isa.RBX},
	}
	ob.Term = ir.Term{Kind: ir.TermReturn}

	start := ir.NewFunc("_start", "main.mir", 1)
	sb := start.Blocks[0]
	sb.Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RDI, Imm: 10},
		{Kind: ir.OpCall, Callee: "outer", SpillReg: isa.NoReg, LandingPad: -1},
	}
	sb.Term = ir.Term{Kind: ir.TermExit}
	return &ir.Program{Modules: []*ir.Module{
		{Name: "main", Funcs: []*ir.Func{start}},
		{Name: "lib", Funcs: []*ir.Func{outer, callee}},
	}}
}

func TestCalls(t *testing.T) {
	// outer(10) = add3(add3(10)) + 10 = 16 + 10 = 26.
	f := buildProgram(t, callProgram(), cc.DefaultOptions(), ld.Options{})
	if got := runToHalt(t, f); got != 26 {
		t.Fatalf("result = %d, want 26", got)
	}
}

func TestCallsWithInlining(t *testing.T) {
	// add3 is tiny (2 ops) and in the same module as outer only under
	// LTO; result must be identical either way.
	for _, lto := range []bool{false, true} {
		opts := cc.DefaultOptions()
		opts.LTO = lto
		f := buildProgram(t, callProgram(), opts, ld.Options{})
		if got := runToHalt(t, f); got != 26 {
			t.Fatalf("lto=%v: result = %d, want 26", lto, got)
		}
	}
}

// branchProgram: loop 100 times, count bytes < 128 in a data table.
func branchProgram(pic bool) *ir.Program {
	data := make([]byte, 256)
	want := 0
	for i := range data {
		data[i] = byte(i * 37)
		if data[i] < 128 {
			want++
		}
	}
	_ = want

	f := ir.NewFunc("_start", "main.mir", 1)
	// b0: init rbx=0 (counter) rsi=0 (i)
	b0 := f.Blocks[0]
	b0.Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RBX, Imm: 0},
		{Kind: ir.OpMovImm, Dst: isa.RSI, Imm: 0},
	}
	b1 := f.AddBlock() // loop head: load input[rsi], compare
	b2 := f.AddBlock() // increment counter
	b3 := f.AddBlock() // loop latch
	b4 := f.AddBlock() // exit
	b0.Term = ir.Term{Kind: ir.TermJump, Then: b1.Index}

	b1.Ops = []ir.Op{{Kind: ir.OpLoadByte, Dst: isa.RAX, Src: isa.RSI, Sym: "table", Scale: 1}}
	b1.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondL, CmpReg: isa.RAX, CmpImm: 128,
		Then: b2.Index, Else: b3.Index}

	b2.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.RBX, Imm: 1}}
	b2.Term = ir.Term{Kind: ir.TermJump, Then: b3.Index}

	b3.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.RSI, Imm: 1}}
	b3.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondL, CmpReg: isa.RSI, CmpImm: 256,
		Then: b1.Index, Else: b4.Index}

	b4.Ops = []ir.Op{{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RBX}}
	b4.Term = ir.Term{Kind: ir.TermExit}
	_ = pic
	return &ir.Program{
		Modules: []*ir.Module{{Name: "main", Funcs: []*ir.Func{f}}},
		Globals: []*ir.Global{{Name: "table", Data: data, Align: 8}},
	}
}

func TestBranchesAndLoads(t *testing.T) {
	data := make([]byte, 256)
	want := uint64(0)
	for i := range data {
		data[i] = byte(i * 37)
		if data[i] < 128 {
			want++
		}
	}
	f := buildProgram(t, branchProgram(false), cc.DefaultOptions(), ld.Options{})
	if got := runToHalt(t, f); got != want {
		t.Fatalf("result = %d, want %d", got, want)
	}
}

// switchProgram exercises jump tables: sum switch(i%4) over i in [0,64).
func switchProgram(pic bool) *ir.Program {
	f := ir.NewFunc("_start", "main.mir", 1)
	b0 := f.Blocks[0]
	b0.Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RBX, Imm: 0},
		{Kind: ir.OpMovImm, Dst: isa.RSI, Imm: 0},
	}
	head := f.AddBlock()
	c0 := f.AddBlock()
	c1 := f.AddBlock()
	c2 := f.AddBlock()
	c3 := f.AddBlock()
	latch := f.AddBlock()
	exit := f.AddBlock()

	b0.Term = ir.Term{Kind: ir.TermJump, Then: head.Index}
	head.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RCX, Src: isa.RSI},
		{Kind: ir.OpAndImm, Dst: isa.RCX, Imm: 3},
	}
	head.Term = ir.Term{Kind: ir.TermSwitch, IndexReg: isa.RCX, PIC: pic,
		Targets: []int{c0.Index, c1.Index, c2.Index, c3.Index}}

	for i, c := range []*ir.Block{c0, c1, c2, c3} {
		c.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.RBX, Imm: int64(i * i)}}
		c.Term = ir.Term{Kind: ir.TermJump, Then: latch.Index}
	}
	latch.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.RSI, Imm: 1}}
	latch.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondL, CmpReg: isa.RSI, CmpImm: 64,
		Then: head.Index, Else: exit.Index}
	exit.Ops = []ir.Op{{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RBX}}
	exit.Term = ir.Term{Kind: ir.TermExit}
	return &ir.Program{Modules: []*ir.Module{{Name: "main", Funcs: []*ir.Func{f}}}}
}

func TestJumpTables(t *testing.T) {
	// 16 iterations of each case: 16*(0+1+4+9) = 224.
	for _, pic := range []bool{false, true} {
		f := buildProgram(t, switchProgram(pic), cc.DefaultOptions(), ld.Options{EmitRelocs: true})
		if got := runToHalt(t, f); got != 224 {
			t.Fatalf("pic=%v: result = %d, want 224", pic, got)
		}
	}
}

// exceptionProgram: thrower(i) throws when i is odd; caller catches and
// records. Sum over i in [0,10): even i contribute i, odd contribute 100.
func exceptionProgram() *ir.Program {
	thrower := ir.NewFunc("thrower", "lib.mir", 30)
	tb := thrower.Blocks[0]
	throwBlk := thrower.AddBlock()
	okBlk := thrower.AddBlock()
	tb.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
		{Kind: ir.OpAndImm, Dst: isa.RAX, Imm: 1},
	}
	tb.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondNE, CmpReg: isa.RAX, CmpImm: 0,
		Then: throwBlk.Index, Else: okBlk.Index}
	throwBlk.Term = ir.Term{Kind: ir.TermThrow, LandingPad: -1}
	okBlk.Ops = []ir.Op{{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI}}
	okBlk.Term = ir.Term{Kind: ir.TermReturn}

	// caller: rbx accumulates; invoke thrower(i); on catch add 100.
	caller := ir.NewFunc("caller", "main.mir", 40)
	caller.SavedRegs = []isa.Reg{isa.RBX, isa.R12}
	caller.FrameSlots = 1
	cb := caller.Blocks[0]
	loop := caller.AddBlock()
	lp := caller.AddBlock()
	cont := caller.AddBlock()
	done := caller.AddBlock()

	cb.Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RBX, Imm: 0},
		{Kind: ir.OpMovImm, Dst: isa.R12, Imm: 0},
	}
	cb.Term = ir.Term{Kind: ir.TermJump, Then: loop.Index}

	loop.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RDI, Src: isa.R12},
		{Kind: ir.OpCall, Callee: "thrower", SpillReg: isa.NoReg, LandingPad: lp.Index},
		{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.RAX},
	}
	loop.Term = ir.Term{Kind: ir.TermJump, Then: cont.Index}

	lp.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.RBX, Imm: 100}}
	lp.Term = ir.Term{Kind: ir.TermJump, Then: cont.Index}

	cont.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.R12, Imm: 1}}
	cont.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondL, CmpReg: isa.R12, CmpImm: 10,
		Then: loop.Index, Else: done.Index}

	done.Ops = []ir.Op{{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RBX}}
	done.Term = ir.Term{Kind: ir.TermReturn}

	start := ir.NewFunc("_start", "main.mir", 1)
	sb := start.Blocks[0]
	sb.Ops = []ir.Op{{Kind: ir.OpCall, Callee: "caller", SpillReg: isa.NoReg, LandingPad: -1}}
	sb.Term = ir.Term{Kind: ir.TermExit}

	return &ir.Program{Modules: []*ir.Module{
		{Name: "main", Funcs: []*ir.Func{start, caller}},
		{Name: "lib", Funcs: []*ir.Func{thrower}},
	}}
}

func TestExceptions(t *testing.T) {
	// Evens: 0+2+4+6+8 = 20; odds: 5*100 = 500; total 520.
	f := buildProgram(t, exceptionProgram(), cc.DefaultOptions(), ld.Options{})
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := m.Result(); got != 520 {
		t.Fatalf("result = %d, want 520", got)
	}
	if m.C.Throws != 5 {
		t.Fatalf("throws = %d, want 5", m.C.Throws)
	}
}

// pltProgram: a shared-module function called through the PLT.
func pltProgram() *ir.Program {
	shared := ir.NewFunc("libfn", "shared.mir", 5)
	sb := shared.Blocks[0]
	sb.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
		{Kind: ir.OpShlImm, Dst: isa.RAX, Imm: 4},
	}
	sb.Term = ir.Term{Kind: ir.TermReturn}

	start := ir.NewFunc("_start", "main.mir", 1)
	b := start.Blocks[0]
	b.Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RDI, Imm: 3},
		{Kind: ir.OpCall, Callee: "libfn", SpillReg: isa.NoReg, LandingPad: -1},
	}
	b.Term = ir.Term{Kind: ir.TermExit}
	return &ir.Program{Modules: []*ir.Module{
		{Name: "main", Funcs: []*ir.Func{start}},
		{Name: "libshared", Shared: true, Funcs: []*ir.Func{shared}},
	}}
}

func TestPLTCall(t *testing.T) {
	f := buildProgram(t, pltProgram(), cc.DefaultOptions(), ld.Options{})
	if f.Section(".plt") == nil {
		t.Fatal("expected a .plt section")
	}
	if _, ok := f.SymbolByName("libfn@plt"); !ok {
		t.Fatal("expected libfn@plt symbol")
	}
	if got := runToHalt(t, f); got != 48 {
		t.Fatalf("result = %d, want 48", got)
	}
	// NoPLT (static-LTO style) must produce the same result without .plt.
	f2 := buildProgram(t, pltProgram(), cc.DefaultOptions(), ld.Options{NoPLT: true})
	if f2.Section(".plt") != nil {
		t.Fatal("NoPLT build must not have .plt")
	}
	if got := runToHalt(t, f2); got != 48 {
		t.Fatalf("NoPLT result = %d, want 48", got)
	}
}

// spillProgram: redundant caller-saved spill around a call.
func spillProgram() *ir.Program {
	callee := ir.NewFunc("id", "lib.mir", 3)
	cb := callee.Blocks[0]
	cb.Ops = []ir.Op{{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI}}
	cb.Term = ir.Term{Kind: ir.TermReturn}

	start := ir.NewFunc("_start", "main.mir", 1)
	b := start.Blocks[0]
	b.Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RDI, Imm: 9},
		// R9 is dead here; the spill is unnecessary (frame-opts fodder).
		{Kind: ir.OpCall, Callee: "id", SpillReg: isa.R9, LandingPad: -1},
	}
	b.Term = ir.Term{Kind: ir.TermExit}
	return &ir.Program{Modules: []*ir.Module{
		{Name: "main", Funcs: []*ir.Func{start, callee}},
	}}
}

func TestSpillAroundCall(t *testing.T) {
	f := buildProgram(t, spillProgram(), cc.DefaultOptions(), ld.Options{})
	if got := runToHalt(t, f); got != 9 {
		t.Fatalf("result = %d, want 9", got)
	}
}

// TestBranchCountersSane: a loop with a data-dependent branch executes
// and takes conditional branches, and never takes more than it executes.
// The ring of taken transfers is the sampler's (internal/perf,
// TestLBRRecordsTakenBranches).
func TestBranchCountersSane(t *testing.T) {
	f := buildProgram(t, branchProgram(false), cc.DefaultOptions(), ld.Options{})
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.C.Branches == 0 || m.C.TakenBranch == 0 || m.C.TakenBranch > m.C.Branches {
		t.Fatalf("counter sanity: %+v", m.C)
	}
}

func TestRunBudget(t *testing.T) {
	f := buildProgram(t, branchProgram(false), cc.DefaultOptions(), ld.Options{})
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	reason, err := m.Run(10)
	if err != nil || reason != StopBudget {
		t.Fatalf("want budget stop, got %v %v", reason, err)
	}
	if m.C.Instructions != 10 {
		t.Fatalf("executed %d, want 10", m.C.Instructions)
	}
	// Resume to completion.
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Fatal("not halted after resume")
	}
}

func TestWildJumpDetected(t *testing.T) {
	f := buildProgram(t, arithProgram(), cc.DefaultOptions(), ld.Options{})
	m, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	m.rip = f.Entry + 1 // middle of an instruction
	if _, err := m.Run(0); err == nil {
		t.Fatal("expected wild-jump error")
	}
}
