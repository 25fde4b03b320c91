package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/elfx"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
	"gobolt/internal/workload"
)

// loadSlabCtx loads the shared loader fixture with enough functions that
// multi-block bodies and slab-adjacent blocks exist.
func loadSlabCtx(t testing.TB, jobs int) *BinaryContext {
	f := buildLoaderFile(t, 8)
	opts := DefaultOptions()
	opts.Jobs = jobs
	ctx, err := NewContext(context.Background(), f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestSlabInstsSurviveAppend is the slab allocator's safety contract
// with the pass manager: block instruction slices are carved from one
// per-function slab with capacity == length, so a pass appending to one
// block (as ICP's promotion does) must reallocate that block's slice
// rather than grow into — and clobber — the next block's storage.
func TestSlabInstsSurviveAppend(t *testing.T) {
	ctx := loadSlabCtx(t, 1)
	var fn *BinaryFunction
	for _, f := range ctx.Funcs {
		if f.Simple && len(f.Blocks) >= 2 && len(f.Blocks[0].Insts) > 0 && len(f.Blocks[1].Insts) > 0 {
			fn = f
			break
		}
	}
	if fn == nil {
		t.Fatal("fixture has no simple multi-block function")
	}
	b0, b1 := fn.Blocks[0], fn.Blocks[1]
	if cap(b0.Insts) != len(b0.Insts) {
		t.Fatalf("block 0 insts carved with cap %d != len %d; appends would clobber the neighbor slab region",
			cap(b0.Insts), len(b0.Insts))
	}

	before := append([]Inst(nil), b1.Insts...)
	// Mutate like a pass: duplicate the block's own first instruction at
	// the end, forcing growth past the slab boundary.
	b0.Insts = append(b0.Insts, b0.Insts[0])
	if !reflect.DeepEqual(before, b1.Insts) {
		t.Fatal("appending past block 0's capacity corrupted block 1's instructions")
	}
	if got := len(b0.Insts); got != len(before)+1 && got < 2 {
		t.Fatalf("append lost instructions: %d", got)
	}
	if !reflect.DeepEqual(b0.Insts[len(b0.Insts)-1], b0.Insts[0]) {
		t.Fatal("appended instruction not visible in block 0")
	}
}

// emitOne emits fn alone, into fresh windows sized as the emitter sizes
// them.
func emitOne(ctx *BinaryContext, fn *BinaryFunction, sc *emitScratch) ([]fragment, []uint32, error) {
	frags, offs, _ := emitShape(fn)
	fr, off := make([]fragment, frags), make([]uint32, offs)
	return fr, off, ctx.emitFunction(fn, fr, off, sc)
}

// TestEmitScratchReuse proves the emitter's worker scratch is fully
// reset between functions: emitting a stream of functions through one
// reused scratch must produce the same fragments as a fresh scratch per
// function. This is the single-worker shape of what Rewrite's pool does,
// and the property that makes BenchmarkRewrite's output independent of
// how functions land on workers.
func TestEmitScratchReuse(t *testing.T) {
	ctx := loadSlabCtx(t, 1)
	var shared emitScratch
	for _, fn := range ctx.SimpleFuncs() {
		reused, reusedOffs, err := emitOne(ctx, fn, &shared)
		if err != nil {
			t.Fatalf("%s (reused scratch): %v", fn.Name, err)
		}
		fresh, freshOffs, err := emitOne(ctx, fn, &emitScratch{})
		if err != nil {
			t.Fatalf("%s (fresh scratch): %v", fn.Name, err)
		}
		if !reflect.DeepEqual(reused, fresh) || !reflect.DeepEqual(reusedOffs, freshOffs) {
			t.Fatalf("%s: reused-scratch emission differs from fresh-scratch emission", fn.Name)
		}
	}
}

// emitSlabs is the number of slab types an emission worker refills:
// code and BAT wire bytes, relocations, CFI, call sites and lines.
const emitSlabs = 5

// TestEmitAllocsDoNotScale is the worker-slab rule for emission: a
// warmed worker emitting every simple function of the fixture refills
// each of its slabs at most once — the allocation count does not grow
// with the function count. The stage lists the fixture's functions once
// per pass, so it is as long as a binary with that many times the
// functions; after a first pass has warmed the worker's scratch lists,
// each further pass is measured. With one allocation per function and
// list it took 155 allocations for the fixture's 11 simple functions.
func TestEmitAllocsDoNotScale(t *testing.T) {
	const passes = 12
	ctx := loadSlabCtx(t, 1)
	simple := ctx.SimpleFuncs()
	if len(simple) < 8 {
		t.Fatalf("fixture has %d simple functions; the rule needs several", len(simple))
	}
	e := &emitter{ctx: ctx}
	e.prepare(slices.Repeat(simple, passes))
	var sc emitScratch
	sc.pace.jobs = 1
	next := 0
	pass := func() {
		for range simple {
			if err := e.emit(&sc, next); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	pass() // warm the worker: its scratch lists reach their sizes
	got := testing.AllocsPerRun(passes-2, pass)
	if got > emitSlabs {
		t.Errorf("emitting %d functions allocated %v times per pass, want at most one refill per slab (%d)",
			len(simple), got, emitSlabs)
	}
	t.Logf("%v allocations per pass of %d functions", got, len(simple))
}

// loadSlabs is the number of slab types a loader worker refills: blocks,
// block lists and jump-table targets, jump tables, edges, CFI states and
// landing pads.
const loadSlabs = 6

// wideFunc loads a program whose function "wide" is a chain of n
// conditional branches, more than a thousand basic blocks for the n the
// tests pass, and returns its context and the function.
func wideFunc(t testing.TB, n int) (*BinaryContext, *BinaryFunction) {
	t.Helper()
	w := ir.NewFunc("wide", "wide.mir", 1)
	exit := w.AddBlock()
	exit.Term = ir.Term{Kind: ir.TermReturn}
	cur := w.Blocks[0]
	for i := 0; i < n; i++ {
		next := w.AddBlock()
		cur.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 1}}
		cur.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondL, CmpReg: isa.RAX, CmpImm: int64(i),
			Then: next.Index, Else: exit.Index, Prob: 0.5}
		cur = next
	}
	cur.Term = ir.Term{Kind: ir.TermReturn}
	start := ir.NewFunc("_start", "wide.mir", 2)
	start.Blocks[0].Ops = []ir.Op{{Kind: ir.OpCall, Callee: "wide", SpillReg: isa.NoReg, LandingPad: -1}}
	start.Blocks[0].Term = ir.Term{Kind: ir.TermExit}
	p := &ir.Program{Modules: []*ir.Module{{Name: "m", Funcs: []*ir.Func{w, start}}}}
	p.Finalize()
	objs, err := cc.Compile(p, cc.DefaultOptions())
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
	fn := ctx.ByName["wide"]
	if !fn.Simple || len(fn.Blocks) <= n {
		t.Fatalf("wide: simple=%t (%s) with %d blocks, want simple with more than %d", fn.Simple, fn.Reason, len(fn.Blocks), n)
	}
	return ctx, fn
}

// TestLoadAllocsDoNotScale is the worker-slab rule for the loader: a
// warmed worker loading the fixture's simple functions allocates each
// function's instruction array and otherwise refills each of its slabs at
// most once per pass, so the count grows with the functions by one, not
// by the blocks and tables each carries. The stage lists the functions
// once per pass, as a binary with that many times the functions would,
// and one of them has over a thousand blocks, which the loader names by
// their positions and allocates nothing for. With a block array, a block
// list and the jump-table list, values and targets allocated per
// function it took 36 allocations per pass over the fixture's 11 simple
// functions, a string per block label past a shared table of 1 024 took
// 78 more, and one string for all of them took one.
func TestLoadAllocsDoNotScale(t *testing.T) {
	const passes = 12
	ctx := loadSlabCtx(t, 1)
	simple := ctx.SimpleFuncs()
	if len(simple) < 8 {
		t.Fatalf("fixture has %d simple functions; the rule needs several", len(simple))
	}
	wideCtx, wide := wideFunc(t, 1099)
	simple = append(simple, wide)
	stage := slices.Repeat(simple, passes)
	rest := make([]int64, len(stage)+1)
	for i := len(stage) - 1; i >= 0; i-- {
		rest[i] = rest[i+1] + int64(stage[i].Size)
	}
	sc := loaderScratch{pace: pace{jobs: 1}}
	next := 0
	pass := func() {
		for range simple {
			fn := stage[next]
			c := ctx
			if fn == wide {
				c = wideCtx
			}
			sc.pace.next(rest, next)
			c.loadFunction(fn, &sc)
			if !fn.Simple {
				t.Fatalf("%s: reloading made it non-simple: %s", fn.Name, fn.Reason)
			}
			next++
		}
	}
	pass() // warm the worker: its scratch lists reach their sizes
	got := testing.AllocsPerRun(passes-2, pass)
	if want := float64(len(simple) + loadSlabs); got > want {
		t.Errorf("loading %d functions allocated %v times per pass, want one instruction array each and at most one refill per slab (%v)",
			len(simple), got, want)
	}
	if last := wide.Blocks[len(wide.Blocks)-1]; last.ID != BlockID(last.Index) || last.ID.String() != fmt.Sprintf(".LBB%d", last.Index) {
		t.Errorf("wide's last block %d has ID %d, named %s", last.Index, last.ID, last.ID)
	}
	t.Logf("%v allocations per pass of %d functions", got, len(simple))
}

// staleFixture loads the slab fixture and a stale matcher whose shapes
// are the fixture's own with every block one byte further on, so that
// each function with a shape is stale and goes through the matcher; it
// returns those functions.
func staleFixture(t testing.TB, ctx *BinaryContext) (*staleMatcher, []*BinaryFunction) {
	shapes := ComputeShapes(ctx)
	for _, sh := range shapes {
		for i := range sh.Blocks {
			sh.Blocks[i].Off++
		}
	}
	var funcs []*BinaryFunction
	for _, fn := range ctx.SimpleFuncs() {
		if _, ok := shapes[fn.Name]; ok {
			funcs = append(funcs, fn)
		}
	}
	if len(funcs) < 8 {
		t.Fatalf("fixture has %d functions with shapes; the rule needs several", len(funcs))
	}
	return &staleMatcher{shapes: shapes, funcs: make([]staleFunc, len(ctx.Funcs))}, funcs
}

// TestStaleComputeAllocsDoNotScale is the worker-scratch rule for stale
// matching: a warmed profile:apply worker builds each function's current
// shape and matches it in its own buffers, so a pass over the fixture's
// stale functions allocates one kept match slice per function and
// nothing else, however many passes run. With a shape, a successor list
// per block and four maps per round made per function, it took 91
// allocations per pass over the fixture's 11 functions.
func TestStaleComputeAllocsDoNotScale(t *testing.T) {
	ctx := loadSlabCtx(t, 1)
	sm, funcs := staleFixture(t, ctx)
	var sc staleScratch
	pass := func() {
		for _, fn := range funcs {
			if sf := sm.compute(fn, &sc); sf.match == nil {
				t.Fatalf("%s: shape moved by a byte, but compute found it current", fn.Name)
			}
		}
	}
	pass() // warm the worker: its buffers reach their sizes
	got := testing.AllocsPerRun(10, pass)
	if got > float64(len(funcs)) {
		t.Errorf("stale compute over %d functions allocated %v times per pass, want one match slice each (%d)",
			len(funcs), got, len(funcs))
	}
	t.Logf("%v allocations per pass of %d functions", got, len(funcs))
}

// TestSlabWindowsCapped extends TestSlabInstsSurviveAppend's rule to
// every window the loader and the emitter carve: cap == len, so an
// append to one (as ICP's new blocks are appended to the block list)
// reallocates it instead of writing into the next. The
// loader fixture has jump tables and the tiny preset, made to throw
// often, has landing pads, so every kind of window occurs.
func TestSlabWindowsCapped(t *testing.T) {
	throwing := workload.Tiny()
	throwing.ThrowFrac = 0.9
	seen := map[string]int{}
	capped := func(fn *BinaryFunction, what string, l, c int) {
		t.Helper()
		if c != l {
			t.Fatalf("%s %s: window cap %d != len %d", fn.Name, what, c, l)
		}
		seen[what] += l
	}
	for _, f := range []*elfx.File{buildLoaderFile(t, 8), presetFile(t, throwing)} {
		opts := DefaultOptions()
		opts.Jobs = 2
		ctx, err := NewContext(context.Background(), f, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range ctx.SimpleFuncs() {
			capped(fn, "CFI states", len(fn.cfiStates), cap(fn.cfiStates))
			capped(fn, "landing pads", len(fn.lps), cap(fn.lps))
			capped(fn, "block list", len(fn.Blocks), cap(fn.Blocks))
			capped(fn, "jump tables", len(fn.JTs), cap(fn.JTs))
			for _, jt := range fn.JTs {
				capped(fn, "jump-table targets", len(jt.Targets), cap(jt.Targets))
			}
			for _, b := range fn.Blocks {
				capped(fn, "Insts", len(b.Insts), cap(b.Insts))
				capped(fn, "Succs", len(b.Succs), cap(b.Succs))
			}
		}
		e := &emitter{ctx: ctx}
		e.prepare(ctx.SimpleFuncs())
		var sc emitScratch
		sc.pace.jobs = 1
		for i := range e.funcs {
			if err := e.emit(&sc, i); err != nil {
				t.Fatal(err)
			}
			fn := e.funcs[i].fn
			for s := range e.funcs[i].frags {
				fr := &e.funcs[i].frags[s]
				capped(fn, "code", len(fr.Code), cap(fr.Code))
				capped(fn, "relocations", len(fr.Relocs), cap(fr.Relocs))
				capped(fn, "CFI", len(fr.CFI), cap(fr.CFI))
				capped(fn, "call sites", len(fr.CallSites), cap(fr.CallSites))
				capped(fn, "lines", len(fr.Lines), cap(fr.Lines))
				capped(fn, "BAT wire", len(fr.BAT.Wire), cap(fr.BAT.Wire))
			}
		}
	}
	for what, n := range seen {
		if n == 0 {
			t.Errorf("the fixtures carved no %s window, so the rule went unchecked for them", what)
		}
	}
}
