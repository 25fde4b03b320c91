package cc

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
	"gobolt/internal/obj"
	"gobolt/internal/workload"
)

// branchy builds: entry -> {then(line 3) | else(line 5)} -> ret.
func branchy(file string) *ir.Func {
	f := ir.NewFunc("f", file, 2)
	thenB := f.AddBlock()
	elseB := f.AddBlock()
	ret := f.AddBlock()
	thenB.Line, elseB.Line = 3, 5
	f.Blocks[0].Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondG, CmpReg: isa.RDI, CmpImm: 0,
		Then: thenB.Index, Else: elseB.Index}
	thenB.Ops = []ir.Op{{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 1}}
	thenB.Term = ir.Term{Kind: ir.TermJump, Then: ret.Index}
	elseB.Ops = []ir.Op{{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 2}}
	elseB.Term = ir.Term{Kind: ir.TermJump, Then: ret.Index}
	ret.Term = ir.Term{Kind: ir.TermReturn}
	return f
}

func singleFuncProgram(f *ir.Func) *ir.Program {
	start := ir.NewFunc("_start", "m.mir", 1)
	start.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RDI, Imm: 1},
		{Kind: ir.OpCall, Callee: "f", SpillReg: isa.NoReg, LandingPad: -1},
	}
	start.Blocks[0].Term = ir.Term{Kind: ir.TermExit}
	p := &ir.Program{Modules: []*ir.Module{{Name: "m", Funcs: []*ir.Func{start, f}}}}
	p.Finalize()
	return p
}

// inlinedFunc finds name among inlineAll's functions.
func inlinedFunc(funcs []*ir.Func, name string) *ir.Func {
	for _, f := range funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

func TestPGOBranchPolarityFromSuccessorLines(t *testing.T) {
	p := singleFuncProgram(branchy("src.mir"))
	sp := NewSourceProfile()
	// The else side (line 5) dominates.
	sp.AddBranchSample(SrcKey{"src.mir", 2}, SrcKey{"src.mir", 3}, 5)
	sp.AddBranchSample(SrcKey{"src.mir", 2}, SrcKey{"src.mir", 5}, 95)
	opts := DefaultOptions()
	opts.PGO = sp

	f := p.FuncByName("f")
	prob := branchProb(f, f.Blocks[0], sp)
	if prob > 0.1 {
		t.Fatalf("then-probability should be ~0.05, got %f", prob)
	}
	order := layoutBlocks(f, opts)
	// The hot else block (index 2) must directly follow the entry.
	if order[1] != 2 {
		t.Fatalf("hot successor not adjacent: order %v", order)
	}
}

func TestTinyInlining(t *testing.T) {
	callee := ir.NewFunc("tiny", "lib.mir", 8)
	callee.Blocks[0].Ops = []ir.Op{{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 7}}
	callee.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}
	caller := ir.NewFunc("_start", "m.mir", 1)
	caller.Blocks[0].Ops = []ir.Op{{Kind: ir.OpCall, Callee: "tiny", SpillReg: isa.NoReg, LandingPad: -1}}
	caller.Blocks[0].Term = ir.Term{Kind: ir.TermExit}
	p := &ir.Program{Modules: []*ir.Module{{Name: "m", Funcs: []*ir.Func{caller, callee}}}}
	p.Finalize()

	got := inlinedFunc(inlineAll(p, DefaultOptions()), "_start")
	for _, b := range got.Blocks {
		for _, op := range b.Ops {
			if op.Kind == ir.OpCall && op.Callee == "tiny" {
				t.Fatal("tiny callee was not inlined")
			}
		}
	}
	// Inlined ops keep the callee's source file (the Figure 2 property).
	found := false
	for _, b := range got.Blocks {
		for _, op := range b.Ops {
			if op.File == "lib.mir" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("inlined ops lost callee source coordinates")
	}
}

func TestCrossModuleInliningNeedsLTO(t *testing.T) {
	callee := ir.NewFunc("tiny", "lib.mir", 8)
	callee.Blocks[0].Ops = []ir.Op{{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 7}}
	callee.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}
	caller := ir.NewFunc("_start", "m.mir", 1)
	caller.Blocks[0].Ops = []ir.Op{{Kind: ir.OpCall, Callee: "tiny", SpillReg: isa.NoReg, LandingPad: -1}}
	caller.Blocks[0].Term = ir.Term{Kind: ir.TermExit}
	p := &ir.Program{Modules: []*ir.Module{
		{Name: "m", Funcs: []*ir.Func{caller}},
		{Name: "lib", Funcs: []*ir.Func{callee}},
	}}
	p.Finalize()

	hasCall := func(f *ir.Func) bool {
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				if op.Kind == ir.OpCall {
					return true
				}
			}
		}
		return false
	}
	if !hasCall(inlinedFunc(inlineAll(p, DefaultOptions()), "_start")) {
		t.Fatal("cross-module inlining happened without LTO")
	}
	lto := DefaultOptions()
	lto.LTO = true
	if hasCall(inlinedFunc(inlineAll(p, lto), "_start")) {
		t.Fatal("LTO did not inline across modules")
	}
}

// TestHotSpliceKeyedByItsOwnFile: a call spliced into a function from
// another file keeps that file's coordinates, and so does its PGO
// lookup. _start (main.mir) inlines mid (mid.mir) at a hot call site;
// mid's call of leaf, now in _start, is hot under mid.mir:9 — the only
// key the profile has for it — so leaf is inlined into _start too. The
// caller's file paired with the op's line, main.mir:9, names no site.
func TestHotSpliceKeyedByItsOwnFile(t *testing.T) {
	// Both callees are above the tiny threshold and within PGO's.
	body := func(n int) []ir.Op {
		ops := make([]ir.Op, n)
		for i := range ops {
			ops[i] = ir.Op{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: int64(i + 1)}
		}
		return ops
	}
	leaf := ir.NewFunc("leaf", "leaf.mir", 20)
	leaf.Blocks[0].Ops = body(5)
	leaf.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}
	mid := ir.NewFunc("mid", "mid.mir", 8)
	mid.Blocks[0].Ops = append(body(4),
		ir.Op{Kind: ir.OpCall, Callee: "leaf", SpillReg: isa.NoReg, LandingPad: -1, Line: 9})
	mid.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}
	start := ir.NewFunc("_start", "main.mir", 1)
	start.Blocks[0].Ops = []ir.Op{{Kind: ir.OpCall, Callee: "mid", SpillReg: isa.NoReg, LandingPad: -1, Line: 3}}
	start.Blocks[0].Term = ir.Term{Kind: ir.TermExit}
	p := &ir.Program{Modules: []*ir.Module{{Name: "m", Funcs: []*ir.Func{start, mid, leaf}}}}
	p.Finalize()

	opts := DefaultOptions()
	opts.PGO = NewSourceProfile()
	opts.PGO.Call[SrcKey{File: "main.mir", Line: 3}] = hotCallCount
	opts.PGO.Call[SrcKey{File: "mid.mir", Line: 9}] = hotCallCount
	got := inlinedFunc(inlineAll(p, opts), "_start")
	for _, b := range got.Blocks {
		for _, op := range b.Ops {
			if op.Kind == ir.OpCall {
				t.Fatalf("_start still calls %s (at %s:%d): the spliced site was not found under its own file",
					op.Callee, op.File, op.Line)
			}
		}
	}
	leafOps := 0
	for _, b := range got.Blocks {
		for _, op := range b.Ops {
			if op.File == "leaf.mir" {
				leafOps++
			}
		}
	}
	if leafOps != 5 {
		t.Fatalf("_start holds %d of leaf's 5 ops", leafOps)
	}
}

func TestCompileEmitsCFIAndLines(t *testing.T) {
	// Make the callee big enough that it is NOT inlined, so _start keeps
	// its call (and therefore its frame and CFI).
	big := branchy("src.mir")
	for i := 0; i < 6; i++ {
		big.Blocks[1].Ops = append(big.Blocks[1].Ops,
			ir.Op{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: int64(i)})
	}
	p := singleFuncProgram(big)
	objs, err := Compile(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var start *obj.Func
	for _, o := range objs {
		for _, f := range o.Funcs {
			if f.Name == "_start" {
				start = f
			}
		}
	}
	if start == nil {
		t.Fatal("no _start emitted")
	}
	if len(start.CFI) == 0 {
		t.Error("framed function must carry CFI")
	}
	if len(start.Lines) == 0 {
		t.Error("line info missing")
	}
	if len(start.Relocs) == 0 {
		t.Error("call reloc missing")
	}
}

// TestCompileConcurrentOnOneProgram: Compile only reads the program, so
// two goroutines may compile one at once (the race suite checks the
// reads) and get equal objects.
func TestCompileConcurrentOnOneProgram(t *testing.T) {
	p := workload.Generate(workload.Tiny())
	var objs [2][]*obj.Object
	var errs [2]error
	var wg sync.WaitGroup
	for i := range objs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			objs[i], errs[i] = Compile(p, DefaultOptions())
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(objs[0], objs[1]) {
		t.Fatal("two concurrent compiles of one program gave other objects")
	}
}

// Functions are lowered in parallel: a preset compiled at GOMAXPROCS 1
// and at 4 links to the same bytes.
func TestCompileDeterministicAcrossGOMAXPROCS(t *testing.T) {
	build := func(procs int) []byte {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		objs, err := Compile(workload.Generate(workload.Tiny()), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ld.Link(objs, ld.Options{EmitRelocs: true, ICF: true})
		if err != nil {
			t.Fatal(err)
		}
		data, err := res.File.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := build(1)
	for i := range 3 {
		if !bytes.Equal(build(4), serial) {
			t.Fatalf("compile %d at GOMAXPROCS 4 links to other bytes than at 1", i)
		}
	}
}

// cloneProgram deep-copies p, keeping nil slices nil and empty ones
// empty, so a reflect.DeepEqual against it sees any write to p.
func cloneProgram(p *ir.Program) *ir.Program {
	q := &ir.Program{}
	for _, g := range p.Globals {
		gg := *g
		gg.Data = slices.Clone(g.Data)
		gg.FuncRefs = slices.Clone(g.FuncRefs)
		q.Globals = append(q.Globals, &gg)
	}
	for _, m := range p.Modules {
		mm := &ir.Module{Name: m.Name, Shared: m.Shared}
		for _, f := range m.Funcs {
			g := &ir.Func{
				Name: f.Name, File: f.File, Line: f.Line,
				FrameSlots: f.FrameSlots,
				SavedRegs:  slices.Clone(f.SavedRegs),
				RepzRet:    f.RepzRet,
				Global:     f.Global,
			}
			for _, b := range f.Blocks {
				nb := &ir.Block{Index: b.Index, Line: b.Line, Cold: b.Cold, Term: b.Term}
				nb.Ops = slices.Clone(b.Ops)
				nb.Term.Targets = slices.Clone(b.Term.Targets)
				g.Blocks = append(g.Blocks, nb)
			}
			mm.Funcs = append(mm.Funcs, g)
		}
		q.Modules = append(q.Modules, mm)
	}
	q.Finalize()
	return q
}

// TestCompileLeavesProgramUnchanged: inlining clones a function only to
// splice into it, so a compile leaves the caller's program as it was and
// a second compile of it gives the same objects. LTO and a profile that
// names every call site hot make tiny and hot-site inlining both fire.
func TestCompileLeavesProgramUnchanged(t *testing.T) {
	p := workload.Generate(workload.Proxygen())
	opts := DefaultOptions()
	opts.LTO = true
	opts.PGO = NewSourceProfile()
	for _, m := range p.Modules {
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				for _, op := range b.Ops {
					if op.Kind == ir.OpCall {
						opts.PGO.Call[SrcKey{File: f.File, Line: op.Line}] = hotCallCount
					}
				}
			}
		}
	}
	before := cloneProgram(p)
	first, err := Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, before) {
		t.Fatal("Compile changed the program it was given")
	}
	second, err := Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("a second compile of the same program gave other objects")
	}

	rewritten := func(o Options) int {
		n := 0
		for i, f := range inlineAll(p, o) {
			if f != funcAt(p, i) {
				n++
			}
		}
		return n
	}
	tinyOnly := DefaultOptions()
	tinyOnly.LTO = true
	if tiny, both := rewritten(tinyOnly), rewritten(opts); tiny == 0 || both <= tiny {
		t.Fatalf("functions inlined into: %d with tiny inlining, %d with hot-site inlining too; want 0 < tiny < both", tiny, both)
	}
}

// funcAt returns the i-th function of p in module order.
func funcAt(p *ir.Program, i int) *ir.Func {
	for _, m := range p.Modules {
		if i < len(m.Funcs) {
			return m.Funcs[i]
		}
		i -= len(m.Funcs)
	}
	return nil
}
