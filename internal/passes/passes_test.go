package passes

import (
	"context"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
	"gobolt/internal/obj"
	"gobolt/internal/perf"
	"gobolt/internal/profile"
	"gobolt/internal/uarch"
	"gobolt/internal/vm"
)

// optimize assembles the Figure 3 pipeline directly from core
// primitives — the reference driver path. Production callers go through
// the bolt package instead; the bolt e2e suite checks byte-identity of
// its staged Session against exactly this sequence.
func optimize(f *elfx.File, fd *profile.Fdata, opts core.Options) (*core.RewriteResult, *core.BinaryContext, error) {
	cx := context.Background()
	ctx, err := core.NewContext(cx, f, opts)
	if err != nil {
		return nil, nil, err
	}
	if fd != nil {
		if err := ctx.ApplyProfile(cx, fd); err != nil {
			return nil, ctx, err
		}
	}
	pm := core.NewPassManager(opts.Jobs)
	if err := pm.Run(cx, ctx, BuildPipeline(opts)); err != nil {
		return nil, ctx, err
	}
	res, err := ctx.Rewrite(cx)
	if err != nil {
		return nil, ctx, err
	}
	return res, ctx, nil
}

// buildAndRun compiles/links p and returns (file, result-of-run).
func buildAndRun(t *testing.T, p *ir.Program) (*elfx.File, uint64) {
	t.Helper()
	p.Finalize()
	objs, err := cc.Compile(p, cc.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return res.File, run(t, res.File)
}

func run(t *testing.T, f *elfx.File) uint64 {
	t.Helper()
	m, err := vm.New(f)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := m.Run(200_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !m.Halted() {
		t.Fatalf("did not halt")
	}
	return m.Result()
}

func record(t *testing.T, f *elfx.File, lbr bool) *profile.Fdata {
	t.Helper()
	mode := perf.DefaultMode()
	mode.LBR = lbr
	mode.Period = 256
	fd, _, err := perf.RecordFile(f, mode, 0)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return fd
}

// workProgram builds a small but feature-complete program: hot/cold
// branches, a loop, calls (incl. a redundant spill), a jump table, a
// repz-ret function, duplicate (foldable) functions, an indirect call, a
// tail-call stub, and an exception path.
func workProgram() *ir.Program {
	// input table: 256 bytes with a strong bias.
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte((i * 131) % 256)
	}

	// Leaf compute functions (two identical bodies: ICF fodder).
	mkLeaf := func(name string, mul int64) *ir.Func {
		f := ir.NewFunc(name, "leaf.mir", 10)
		b := f.Blocks[0]
		b.Ops = []ir.Op{
			{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
			{Kind: ir.OpMovImm, Dst: isa.RCX, Imm: mul},
			{Kind: ir.OpMul, Dst: isa.RAX, Src: isa.RCX},
		}
		b.Term = ir.Term{Kind: ir.TermReturn}
		return f
	}
	leafA := mkLeaf("leafA", 3)
	leafDup1 := mkLeaf("dup1", 7)
	leafDup2 := mkLeaf("dup2", 7) // identical to dup1

	repz := ir.NewFunc("repzfn", "leaf.mir", 40)
	repz.RepzRet = true
	rb := repz.Blocks[0]
	rb.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 17},
	}
	rb.Term = ir.Term{Kind: ir.TermReturn}

	// Tail-call stub target.
	tailTarget := mkLeaf("tailTarget", 5)
	stub := ir.NewFunc("stubfn", "leaf.mir", 50)
	stub.Blocks[0].Term = ir.Term{Kind: ir.TermTailCall, Callee: "tailTarget"}

	// Thrower: throws when arg & 0xF == 0 (rare-ish).
	thrower := ir.NewFunc("thrower", "throw.mir", 60)
	tb := thrower.Blocks[0]
	thrBlk := thrower.AddBlock()
	okBlk := thrower.AddBlock()
	tb.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
		{Kind: ir.OpAndImm, Dst: isa.RAX, Imm: 0xF},
	}
	tb.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondE, CmpReg: isa.RAX, CmpImm: 0,
		Then: thrBlk.Index, Else: okBlk.Index, Prob: 1.0 / 16}
	thrBlk.Cold = true
	thrBlk.Term = ir.Term{Kind: ir.TermThrow, LandingPad: -1}
	okBlk.Ops = []ir.Op{{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI}}
	okBlk.Term = ir.Term{Kind: ir.TermReturn}

	// Worker: branches on input byte, switch dispatch, calls leaves.
	worker := ir.NewFunc("worker", "work.mir", 100)
	worker.SavedRegs = []isa.Reg{isa.RBX, isa.R12}
	w0 := worker.Blocks[0]
	hot := worker.AddBlock()   // 1
	cold := worker.AddBlock()  // 2 (rare path)
	sw := worker.AddBlock()    // 3
	c0 := worker.AddBlock()    // 4
	c1 := worker.AddBlock()    // 5
	c2 := worker.AddBlock()    // 6
	c3 := worker.AddBlock()    // 7
	merge := worker.AddBlock() // 8
	lp := worker.AddBlock()    // 9 landing pad
	done := worker.AddBlock()  // 10

	w0.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RBX, Src: isa.RDI},
		{Kind: ir.OpMov, Dst: isa.R12, Src: isa.RDI},
		{Kind: ir.OpAndImm, Dst: isa.R12, Imm: 255},
		{Kind: ir.OpLoadByte, Dst: isa.RAX, Src: isa.R12, Sym: "input", Scale: 1},
	}
	w0.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondL, CmpReg: isa.RAX, CmpImm: 230,
		Then: hot.Index, Else: cold.Index, Prob: 0.9}

	hot.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RDI, Src: isa.RBX},
		{Kind: ir.OpCall, Callee: "leafA", SpillReg: isa.R9, LandingPad: -1},
		{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.RAX},
	}
	hot.Term = ir.Term{Kind: ir.TermJump, Then: sw.Index}

	cold.Cold = true
	cold.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RDI, Src: isa.RBX},
		{Kind: ir.OpCall, Callee: "thrower", SpillReg: isa.NoReg, LandingPad: lp.Index},
		{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.RAX},
	}
	cold.Term = ir.Term{Kind: ir.TermJump, Then: sw.Index}

	sw.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RCX, Src: isa.R12},
		{Kind: ir.OpAndImm, Dst: isa.RCX, Imm: 3},
	}
	sw.Term = ir.Term{Kind: ir.TermSwitch, IndexReg: isa.RCX,
		Targets: []int{c0.Index, c1.Index, c2.Index, c3.Index}, PIC: true}

	for i, c := range []*ir.Block{c0, c1, c2, c3} {
		callee := "dup1"
		if i%2 == 1 {
			callee = "dup2"
		}
		c.Ops = []ir.Op{
			{Kind: ir.OpMov, Dst: isa.RDI, Src: isa.R12},
			{Kind: ir.OpCall, Callee: callee, SpillReg: isa.NoReg, LandingPad: -1},
			{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.RAX},
			{Kind: ir.OpAddImm, Dst: isa.RBX, Imm: int64(i)},
		}
		c.Term = ir.Term{Kind: ir.TermJump, Then: merge.Index}
	}

	// Indirect call through a function-pointer table + tail-call stub.
	merge.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RSI, Src: isa.R12},
		{Kind: ir.OpAndImm, Dst: isa.RSI, Imm: 1},
		{Kind: ir.OpMov, Dst: isa.RDI, Src: isa.R12},
		{Kind: ir.OpCallIndirect, Sym: "fptab", Src: isa.RSI, LandingPad: -1},
		{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.RAX},
		{Kind: ir.OpMov, Dst: isa.RDI, Src: isa.R12},
		{Kind: ir.OpCall, Callee: "stubfn", SpillReg: isa.NoReg, LandingPad: -1},
		{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.RAX},
	}
	merge.Term = ir.Term{Kind: ir.TermJump, Then: done.Index}

	lp.Cold = true
	lp.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.RBX, Imm: 1000}}
	lp.Term = ir.Term{Kind: ir.TermJump, Then: sw.Index}

	done.Ops = []ir.Op{{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RBX}}
	done.Term = ir.Term{Kind: ir.TermReturn}

	// _start: loop over work items, accumulate checksum.
	start := ir.NewFunc("_start", "main.mir", 1)
	start.SavedRegs = []isa.Reg{isa.RBX, isa.R13}
	s0 := start.Blocks[0]
	loop := start.AddBlock()
	exit := start.AddBlock()
	s0.Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RBX, Imm: 0},
		{Kind: ir.OpMovImm, Dst: isa.R13, Imm: 0},
	}
	s0.Term = ir.Term{Kind: ir.TermJump, Then: loop.Index}
	loop.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RDI, Src: isa.R13},
		{Kind: ir.OpCall, Callee: "worker", SpillReg: isa.NoReg, LandingPad: -1},
		{Kind: ir.OpAdd, Dst: isa.RBX, Src: isa.RAX},
		{Kind: ir.OpAddImm, Dst: isa.R13, Imm: 1},
	}
	loop.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondL, CmpReg: isa.R13, CmpImm: 3000,
		Then: loop.Index, Else: exit.Index, Prob: 0.999}
	exit.Ops = []ir.Op{{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RBX}}
	exit.Term = ir.Term{Kind: ir.TermExit}

	return &ir.Program{
		Modules: []*ir.Module{
			{Name: "main", Funcs: []*ir.Func{start, worker}},
			{Name: "leaves", Funcs: []*ir.Func{leafA, leafDup1, leafDup2, repz, tailTarget, stub, thrower}},
		},
		Globals: []*ir.Global{
			{Name: "input", Data: data, Align: 8},
			{Name: "fptab", Data: make([]byte, 16), Align: 8, Writable: true},
		},
	}
}

func buildWork(t *testing.T) (*elfx.File, uint64) {
	t.Helper()
	return linkWork(t, workProgram())
}

// linkWork compiles and links a workProgram variant and runs it once.
func linkWork(t *testing.T, p *ir.Program) (*elfx.File, uint64) {
	t.Helper()
	p.Finalize()
	objs, err := cc.Compile(p, cc.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Wire the function-pointer table entries (leafA, repzfn).
	for _, o := range objs {
		for _, g := range o.Globals {
			if g.Name == "fptab" {
				g.Relocs = []obj.Reloc{
					{Off: 0, Type: obj.RelAbs64, Sym: "leafA"},
					{Off: 8, Type: obj.RelAbs64, Sym: "repzfn"},
				}
			}
		}
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return res.File, run(t, res.File)
}

func TestBoltRoundTrip(t *testing.T) {
	f, want := buildWork(t)
	fd := record(t, f, true)
	if fd.TotalBranchCount() == 0 {
		t.Fatal("no profile collected")
	}
	res, ctx, err := optimize(f, fd, core.DefaultOptions())
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if res.MovedFuncs == 0 {
		t.Fatal("no functions moved")
	}
	got := run(t, res.File)
	if got != want {
		t.Fatalf("semantic change: got %d want %d", got, want)
	}
	// The pipeline must have exercised its headline passes.
	for _, stat := range []string{"strip-rep-ret", "icf-folded", "reorder-bbs-funcs", "split-functions"} {
		if ctx.Stats[stat] == 0 {
			t.Errorf("expected stat %q > 0 (stats: %v)", stat, ctx.Stats)
		}
	}
}

func TestBoltNonLBRProfile(t *testing.T) {
	f, want := buildWork(t)
	fd := record(t, f, false)
	if len(fd.Samples) == 0 {
		t.Fatal("no samples collected")
	}
	res, _, err := optimize(f, fd, core.DefaultOptions())
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if got := run(t, res.File); got != want {
		t.Fatalf("semantic change: got %d want %d", got, want)
	}
}

func TestBoltWithoutProfile(t *testing.T) {
	// No profile: layout stays, but rewriting must still be sound.
	f, want := buildWork(t)
	res, _, err := optimize(f, nil, core.DefaultOptions())
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if got := run(t, res.File); got != want {
		t.Fatalf("semantic change: got %d want %d", got, want)
	}
}

func TestBoltLiteMode(t *testing.T) {
	f, want := buildWork(t)
	fd := record(t, f, true)
	opts := core.DefaultOptions()
	opts.Lite = true
	res, ctx, err := optimize(f, fd, opts)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if got := run(t, res.File); got != want {
		t.Fatalf("semantic change: got %d want %d", got, want)
	}
	if ctx.Stats["lite-skipped"] == 0 {
		t.Error("lite mode skipped nothing")
	}
}

func TestDynoStatsImprove(t *testing.T) {
	f, _ := buildWork(t)
	fd := record(t, f, true)
	ctx, err := core.NewContext(context.Background(), f, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.ApplyProfile(context.Background(), fd); err != nil {
		t.Fatal(err)
	}
	before := ctx.CollectDynoStats()
	if err := core.NewPassManager(1).Run(context.Background(), ctx, BuildPipeline(ctx.Opts)); err != nil {
		t.Fatal(err)
	}
	after := ctx.CollectDynoStats()
	if after.TakenBranches >= before.TakenBranches {
		t.Errorf("taken branches did not drop: before %d after %d",
			before.TakenBranches, after.TakenBranches)
	}
}

func TestBoltSpeedsUpUnderSim(t *testing.T) {
	f, want := buildWork(t)
	fd := record(t, f, true)
	res, _, err := optimize(f, fd, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	measure := func(file *elfx.File) *uarch.Metrics {
		m, err := vm.New(file)
		if err != nil {
			t.Fatal(err)
		}
		sim := uarch.New(uarch.DefaultConfig())
		m.SetTracer(sim)
		if _, err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		if m.Result() != want {
			t.Fatalf("checksum mismatch under sim: %d != %d", m.Result(), want)
		}
		return sim.Finish()
	}
	base := measure(f)
	opt := measure(res.File)
	sp := uarch.Speedup(base, opt)
	t.Logf("cycles base=%d opt=%d speedup=%.2f%% (taken: %d -> %d)",
		base.Cycles, opt.Cycles, 100*sp, base.TakenBranches, opt.TakenBranches)
	if opt.TakenBranches >= base.TakenBranches {
		t.Errorf("taken branches did not improve: %d -> %d", base.TakenBranches, opt.TakenBranches)
	}
}
