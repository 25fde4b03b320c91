package passes

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
	"gobolt/internal/workload"
)

// loadProfiled loads f and applies an LBR profile recorded on it.
func loadProfiled(t *testing.T, f *elfx.File, opts core.Options) *core.BinaryContext {
	t.Helper()
	cx := context.Background()
	ctx, err := core.NewContext(cx, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.ApplyProfile(cx, record(t, f, true)); err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestBlockIndexIsPosition: UCE, reorder-bbs and the liveness behind icp
// and frame-opts key dense tables by BasicBlock.Index, so after the load
// and after every pass of the pipeline Blocks[i].Index must be i.
func TestBlockIndexIsPosition(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and optimizes the clang preset")
	}
	clang := workload.Clang()
	clang.Iterations = 500
	exceptions := workload.Tiny()
	exceptions.ThrowFrac, exceptions.ColdProb = 0.9, 0.1
	for _, spec := range []workload.Spec{clang, exceptions} {
		objs, err := cc.Compile(workload.Generate(spec), cc.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ld.Link(objs, ld.Options{EmitRelocs: true, ICF: true})
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Jobs = 2
		ctx := loadProfiled(t, res.File, opts)
		check := func(after string) {
			for _, fn := range ctx.SimpleFuncs() {
				for i, b := range fn.Blocks {
					if b.Index != i {
						t.Fatalf("%s after %s: %s block %d (%s) has Index %d", spec.Name, after, fn.Name, i, b.Label, b.Index)
					}
				}
			}
		}
		check("load")
		pm := core.NewPassManager(opts.Jobs)
		for _, p := range BuildPipeline(opts) {
			if err := pm.Run(context.Background(), ctx, []core.Pass{p}); err != nil {
				t.Fatal(err)
			}
			check(p.Name())
		}
		for _, stat := range []string{"icp-promoted", "uce-blocks", "reorder-bbs-funcs"} {
			if spec.Name == clang.Name && ctx.Stats[stat] == 0 {
				t.Errorf("%s: %s = 0, so the passes that renumber blocks were not exercised", spec.Name, stat)
			}
		}
	}
}

// TestLiveAfterInst: the spilled register around `push r9; call; pop r9`
// is live after the pop exactly when it is live out of the block, and
// the call's clobber makes it dead in between.
func TestLiveAfterInst(t *testing.T) {
	push := core.Inst{I: isa.NewInst(isa.PUSH)}
	push.I.R1 = isa.R9
	call := core.Inst{I: isa.NewInst(isa.CALL)}
	pop := core.Inst{I: isa.NewInst(isa.POP)}
	pop.I.R1 = isa.R9
	b := &core.BasicBlock{Insts: []core.Inst{push, call, pop}}
	if liveAfterInst(b, 2, 0).Has(isa.R9) {
		t.Error("R9 must be dead after the pop when it is not live-out")
	}
	if !liveAfterInst(b, 2, isa.RegMask(isa.R9)).Has(isa.R9) {
		t.Error("R9 must be live after the pop when it is live-out")
	}
	if liveAfterInst(b, 1, isa.RegMask(isa.R9)).Has(isa.R9) {
		t.Error("R9 must be dead between the call and the pop that redefines it")
	}
	if !liveAfterInst(b, 0, 0).Has(isa.RSP) {
		t.Error("RSP must be live after the push: the call and the pop read it")
	}
}

// TestNoWorkNoAllocation: a pass pays for what it changes. FrameOpts on
// a function without a `push r; call; pop r` triple and UCE on a function
// whose blocks are all reachable allocate nothing. The first UCE run has
// work: it drops a block made unreachable, which holds an invoke, and the
// landing pad's printed predecessors no longer name it.
func TestNoWorkNoAllocation(t *testing.T) {
	f, _ := linkWork(t, workInvoke(t))
	ctx := loadProfiled(t, f, core.DefaultOptions())
	fc := &core.FuncCtx{BinaryContext: ctx}
	// _start calls worker without a spill; leafA has no call at all.
	for _, name := range []string{"_start", "leafA"} {
		fn := ctx.ByName[name]
		if n := testing.AllocsPerRun(20, func() { (FrameOpts{}).RunOnFunction(fc, fn) }); n != 0 {
			t.Errorf("FrameOpts on %s (no candidate): %v allocations per run, want 0", name, n)
		}
	}
	worker := ctx.ByName["worker"]
	// The rare path's block calls thrower with a landing pad that the
	// indirect call shares; retarget the entry's branch to the hot path
	// and nothing reaches the rare path.
	entry := worker.Blocks[0]
	rare := entry.Succs[0].To
	if lp, _ := worker.LandingPad(&rare.Insts[1]); lp == nil {
		t.Fatalf("%s does not hold an invoke", rare.Label)
	}
	entry.Succs[0].To = entry.Succs[1].To
	n := len(worker.Blocks)
	(UCE{}).RunOnFunction(fc, worker) // sizes the worker's scratch, removes what is unreachable
	if len(worker.Blocks) != n-1 || slices.Contains(worker.Blocks, rare) {
		t.Fatalf("worker has %d blocks after UCE, %d before; want %s dropped", len(worker.Blocks), n, rare.Label)
	}
	var cfg bytes.Buffer
	ctx.PrintCFG(&cfg, worker)
	for _, line := range strings.Split(cfg.String(), "\n") {
		if preds, ok := strings.CutPrefix(line, "  Predecessors: "); ok &&
			slices.Contains(strings.Split(preds, ", "), rare.Label) {
			t.Errorf("UCE dropped %s, but a block still names it: %q", rare.Label, line)
		}
	}
	if n := testing.AllocsPerRun(20, func() { (UCE{}).RunOnFunction(fc, worker) }); n != 0 {
		t.Errorf("UCE on a fully reachable function: %v allocations per run, want 0", n)
	}
}

// inlineChain loads A = `call B; ret`, B tiny and C calling A, with A
// ahead of C in the address order or behind it. cc frames every function
// that calls and inlines a one-op function itself, so A is compiled with
// a second op and cut down to the call and the ret after the load.
func inlineChain(t *testing.T, aFirst bool) *core.BinaryContext {
	t.Helper()
	b := ir.NewFunc("B", "chain.mir", 1)
	b.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 3},
	}
	b.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}

	a := ir.NewFunc("A", "chain.mir", 10)
	a.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RSI, Imm: 0},
		{Kind: ir.OpCall, Callee: "B", SpillReg: isa.NoReg, LandingPad: -1},
	}
	a.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}

	c := ir.NewFunc("C", "chain.mir", 20)
	c.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpCall, Callee: "A", SpillReg: isa.NoReg, LandingPad: -1},
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 5},
	}
	c.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}

	start := ir.NewFunc("_start", "chain.mir", 30)
	start.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RDI, Imm: 4},
		{Kind: ir.OpCall, Callee: "C", SpillReg: isa.NoReg, LandingPad: -1},
	}
	start.Blocks[0].Term = ir.Term{Kind: ir.TermExit}

	funcs := []*ir.Func{start, c, a, b}
	if aFirst {
		funcs = []*ir.Func{start, a, c, b}
	}
	p := &ir.Program{Modules: []*ir.Module{{Name: "m", Funcs: funcs}}}
	p.Finalize()
	copts := cc.DefaultOptions()
	copts.TinyInlineOps = 1 // leave everything for the binary-level inliner
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
	if (ctx.ByName["A"].Addr < ctx.ByName["C"].Addr) != aFirst {
		t.Fatalf("A at %#x, C at %#x, want A first = %v", ctx.ByName["A"].Addr, ctx.ByName["C"].Addr, aFirst)
	}
	blk := ctx.ByName["A"].Blocks[0]
	blk.Insts = slices.DeleteFunc(blk.Insts, func(in core.Inst) bool {
		return in.I.Op != isa.CALL && in.I.Op != isa.RET
	})
	return ctx
}

// listing renders a function's instructions, calls by callee name.
func listing(ctx *core.BinaryContext, name string) []string {
	var out []string
	fn := ctx.ByName[name]
	for _, b := range fn.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if callee := ctx.Func(ctx.TargetSym(fn, in)); callee != nil {
				out = append(out, "call "+callee.Name)
			} else {
				out = append(out, in.I.String())
			}
		}
	}
	return out
}

// TestInlineChainOrder: what a chain of inlines produces depends on the
// order the callers are visited in — B goes into A; A, once it is B's
// body, into the C visited after it but not into the C visited before —
// and the scan that lets the splice pass skip callers must not change
// that, at any worker count. The listings are those of the single serial
// pass this pipeline step used to be.
func TestInlineChainOrder(t *testing.T) {
	body := []string{"movq %rdi, %rax", "addq $0x3, %rax"}
	frame := func(mid ...string) []string {
		return slices.Concat([]string{"pushq %rbp", "movq %rsp, %rbp"}, mid, []string{"addq $0x5, %rax", "popq %rbp", "retq"})
	}
	for _, aFirst := range []bool{true, false} {
		wantC, wantInlines := frame("call A"), int64(1) // B into A
		if aFirst {
			wantC, wantInlines = frame(body...), 2 // and A, now B's body, into C
		}
		want := map[string][]string{"A": append(slices.Clone(body), "retq"), "B": append(slices.Clone(body), "retq"), "C": wantC}
		for _, jobs := range []int{0, 1, 4} { // 0: the splice pass alone, no scan
			ctx := inlineChain(t, aFirst)
			pipeline := []core.Pass{core.ForEachFunction(InlineScan{}), InlineSmall{}}
			if jobs == 0 {
				pipeline = pipeline[1:]
			}
			if err := core.NewPassManager(max(jobs, 1)).Run(context.Background(), ctx, pipeline); err != nil {
				t.Fatal(err)
			}
			for name, w := range want {
				if got := listing(ctx, name); !slices.Equal(got, w) {
					t.Errorf("A first = %v, jobs %d: %s =\n  %q, want\n  %q", aFirst, jobs, name, got, w)
				}
			}
			if got := ctx.Stats["inline-small"]; got != wantInlines {
				t.Errorf("A first = %v, jobs %d: inline-small = %d, want %d", aFirst, jobs, got, wantInlines)
			}
			for _, fn := range ctx.Funcs {
				if fn.NoInlineSite {
					t.Errorf("A first = %v, jobs %d: %s keeps its scan mark past the splice pass", aFirst, jobs, fn.Name)
				}
			}
		}
	}
}

// BenchmarkUCE measures the uce pass's reachability walk over every
// simple function of the proxygen preset on one warmed worker. The first
// run, outside the timer, removes what is unreachable, so every timed
// run walks the same CFGs and changes nothing.
func BenchmarkUCE(b *testing.B) {
	f, _ := linkWorkload(b, workload.Proxygen())
	opts := core.DefaultOptions()
	opts.Jobs = 1
	ctx, err := core.NewContext(context.Background(), f, opts)
	if err != nil {
		b.Fatal(err)
	}
	fc := &core.FuncCtx{BinaryContext: ctx}
	funcs := ctx.SimpleFuncs()
	pass := func() {
		for _, fn := range funcs {
			if err := (UCE{}).RunOnFunction(fc, fn); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass()
	b.ReportAllocs()
	for b.Loop() {
		pass()
	}
}
