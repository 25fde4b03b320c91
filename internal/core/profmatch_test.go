package core

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
	"gobolt/internal/profile"
)

// buildProfBinary links a small program built for profile-matching
// tests: `hot` has a conditional diamond plus a loop back-edge, `leaf`
// is straight-line. entryPad prepends identity moves to hot's entry
// block, modeling the version skew that makes a profile stale.
func buildProfBinary(t *testing.T, entryPad int) *BinaryContext {
	t.Helper()
	leaf := ir.NewFunc("leaf", "l.mir", 4)
	leaf.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI},
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 5},
	}
	leaf.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}

	var pad []ir.Op
	for i := 0; i < entryPad; i++ {
		pad = append(pad, ir.Op{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RAX})
	}

	// hot: a diamond — entry -> {left, right} -> ret. The entry block is
	// short, so sparse PC sampling routinely misses it while the arms
	// stay hot (the ExecCount bug scenario).
	f := ir.NewFunc("hot", "h.mir", 10)
	left := f.AddBlock()
	right := f.AddBlock()
	ret := f.AddBlock()
	f.Blocks[0].Ops = append(append([]ir.Op(nil), pad...), []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RCX, Src: isa.RDI},
	}...)
	f.Blocks[0].Term = ir.Term{Kind: ir.TermBranch, CmpReg: isa.RCX, CmpImm: 50,
		Cc: isa.CondL, Then: right.Index, Else: left.Index}
	left.Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 1},
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 2},
	}
	left.Term = ir.Term{Kind: ir.TermJump, Then: ret.Index}
	right.Ops = []ir.Op{{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 99}}
	right.Term = ir.Term{Kind: ir.TermJump, Then: ret.Index}
	ret.Term = ir.Term{Kind: ir.TermReturn}

	// loopy: entry -> body; body -> {body, ret} — a hot back edge for
	// the conservation property tests.
	g := ir.NewFunc("loopy", "g.mir", 10)
	body := g.AddBlock()
	gret := g.AddBlock()
	g.Blocks[0].Ops = append(append([]ir.Op(nil), pad...), []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RCX, Src: isa.RDI},
		{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 0},
	}...)
	g.Blocks[0].Term = ir.Term{Kind: ir.TermJump, Then: body.Index}
	body.Ops = []ir.Op{
		{Kind: ir.OpAddImm, Dst: isa.RAX, Imm: 1},
		{Kind: ir.OpAddImm, Dst: isa.RCX, Imm: -1},
	}
	body.Term = ir.Term{Kind: ir.TermBranch, CmpReg: isa.RCX, CmpImm: 0,
		Cc: isa.CondG, Then: body.Index, Else: gret.Index}
	gret.Term = ir.Term{Kind: ir.TermReturn}

	start := ir.NewFunc("_start", "m.mir", 1)
	start.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RDI, Imm: 100},
		{Kind: ir.OpCall, Callee: "hot", SpillReg: isa.NoReg, LandingPad: -1},
		{Kind: ir.OpCall, Callee: "loopy", SpillReg: isa.NoReg, LandingPad: -1},
		{Kind: ir.OpCall, Callee: "leaf", SpillReg: isa.NoReg, LandingPad: -1},
	}
	start.Blocks[0].Term = ir.Term{Kind: ir.TermExit}

	p := &ir.Program{Modules: []*ir.Module{{Name: "m", Funcs: []*ir.Func{start, f, g, leaf}}}}
	p.Finalize()
	opts := cc.DefaultOptions()
	opts.TinyInlineOps = 1
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

// blockOff returns a block's offset within its function.
func blockOff(fn *BinaryFunction, b *BasicBlock) uint64 { return b.Addr - fn.Addr }

// applyTo runs ApplyProfile and fails the test on error.
func applyTo(t *testing.T, ctx *BinaryContext, fd *profile.Fdata) {
	t.Helper()
	if err := ctx.ApplyProfile(context.Background(), fd); err != nil {
		t.Fatalf("ApplyProfile: %v", err)
	}
}

// TestSampleExecCountFromEntryInflow is the regression test for the
// non-LBR ExecCount bug: a hot function whose short entry block drew no
// PC samples must still get an execution count from its inferred entry
// out-flow instead of being treated as cold.
func TestSampleExecCountFromEntryInflow(t *testing.T) {
	ctx := buildProfBinary(t, 0)
	hot := ctx.ByName["hot"]
	if hot == nil || !hot.Simple || len(hot.Blocks) < 4 {
		t.Fatalf("hot not usable: %+v", hot)
	}
	// Samples only on the diamond arms — none on the short entry block.
	fd := &profile.Fdata{Samples: []profile.Sample{
		{At: profile.Loc{Sym: "hot", Off: blockOff(hot, hot.Blocks[1])}, Count: 3000},
		{At: profile.Loc{Sym: "hot", Off: blockOff(hot, hot.Blocks[2])}, Count: 2000},
	}}
	applyTo(t, ctx, fd)
	if hot.Blocks[0].ExecCount == 0 {
		t.Fatal("entry block count stayed 0 despite hot downstream flow")
	}
	if hot.ExecCount == 0 {
		t.Fatal("ExecCount derived from entry samples only: hot function treated as cold")
	}
	var entryOut uint64
	for _, e := range hot.Blocks[0].Succs {
		entryOut += e.Count
	}
	if hot.ExecCount != entryOut {
		t.Errorf("ExecCount = %d, want entry out-flow %d", hot.ExecCount, entryOut)
	}
	if hot.ProfileAcc != 1.0 {
		t.Errorf("inferred accuracy %v, want 1.0", hot.ProfileAcc)
	}
}

// TestSelfBranchNonSimpleIgnored is the regression test for the applyLBR
// misclassification: a same-function record landing on offset 0 of a
// NON-simple function is a loop back-edge, not a recursive call — it
// must not inflate ExecCount or invent a self CallEdges entry.
func TestSelfBranchNonSimpleIgnored(t *testing.T) {
	ctx := buildProfBinary(t, 0)
	hot := ctx.ByName["hot"]
	hot.Simple = false
	hot.Reason = "forced non-simple for test"
	fd := &profile.Fdata{LBR: true, Branches: []profile.Branch{
		{From: profile.Loc{Sym: "hot", Off: 8}, To: profile.Loc{Sym: "hot", Off: 0}, Count: 7},
	}}
	applyTo(t, ctx, fd)
	if hot.ExecCount != 0 {
		t.Errorf("self branch inflated ExecCount to %d", hot.ExecCount)
	}
	for _, e := range ctx.CallEdges {
		if e.Caller == hot.Ref() && e.Callee == hot.Ref() {
			t.Errorf("self CallEdges entry invented: %+v", e)
		}
	}
	if got := ctx.Stats["profile-ignored-count"]; got != 7 {
		t.Errorf("profile-ignored-count = %d, want 7", got)
	}
	if !hot.Sampled {
		t.Error("self branch should still mark the function sampled")
	}
}

// sampleEverything synthesizes a pseudo-random non-LBR profile hitting
// every block of every simple function.
func sampleEverything(ctx *BinaryContext, rng *rand.Rand) *profile.Fdata {
	fd := &profile.Fdata{}
	for _, fn := range ctx.Funcs {
		if !fn.Simple {
			continue
		}
		for _, b := range fn.Blocks {
			if rng.Intn(4) == 0 {
				continue // sparse, like real PC sampling
			}
			fd.Samples = append(fd.Samples, profile.Sample{
				At:    profile.Loc{Sym: fn.Name, Off: blockOff(fn, b)},
				Count: uint64(1 + rng.Intn(10000)),
			})
		}
	}
	return fd
}

// TestSampleInferenceConservesFlow is the satellite property test: with
// minimum-cost-flow inference (the default for non-LBR profiles), every
// inferred simple function satisfies the flow equations exactly —
// inflow == outflow == block count, ProfileAcc 1.0 — unlike the old
// proportional estimator, which lost flow to per-successor truncation.
func TestSampleInferenceConservesFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		ctx := buildProfBinary(t, 0)
		fd := sampleEverything(ctx, rng)
		applyTo(t, ctx, fd)
		for _, fn := range ctx.Funcs {
			if !fn.Simple || !fn.Sampled {
				continue
			}
			if fn.ProfileAcc != 1.0 {
				t.Errorf("trial %d: %s: ProfileAcc %v, want exactly 1.0", trial, fn.Name, fn.ProfileAcc)
			}
			inflow := map[*BasicBlock]uint64{}
			hasPred := map[*BasicBlock]bool{}
			for _, b := range fn.Blocks {
				for _, e := range b.Succs {
					inflow[e.To] += e.Count
					hasPred[e.To] = true
				}
			}
			for i, b := range fn.Blocks {
				if len(b.Succs) > 0 {
					var out uint64
					for _, e := range b.Succs {
						out += e.Count
					}
					if b.ExecCount != out {
						t.Errorf("trial %d: %s block %d: count %d != outflow %d",
							trial, fn.Name, i, b.ExecCount, out)
					}
				}
				if i > 0 && hasPred[b] && !b.IsEntry() && b.ExecCount != inflow[b] {
					t.Errorf("trial %d: %s block %d: count %d != inflow %d",
						trial, fn.Name, i, b.ExecCount, inflow[b])
				}
			}
		}
		if ctx.FlowAccAfter != 1.0 {
			t.Errorf("trial %d: FlowAccAfter %v, want 1.0", trial, ctx.FlowAccAfter)
		}
	}
}

// lbrRecords synthesizes branch records for every conditional edge of
// the function, plus inter-function call/return noise against toFn.
func lbrRecords(fn *BinaryFunction, scale uint64) []profile.Branch {
	var out []profile.Branch
	for _, b := range fn.Blocks {
		last := b.LastInst()
		if last == nil || last.I.Op != isa.JCC || len(b.Succs) != 2 {
			continue
		}
		lastOff := uint64(fn.instOff(last))
		out = append(out, profile.Branch{
			From:  profile.Loc{Sym: fn.Name, Off: lastOff},
			To:    profile.Loc{Sym: fn.Name, Off: blockOff(fn, b.Succs[0].To)},
			Count: scale,
		})
	}
	return out
}

// statSum asserts the documented invariant straight from the stat
// definitions: every counter declared with SumTo partitions its parent
// exactly (for the profile keys, profile-total-count). The key list
// lives in statDefs, and an outcome cannot be counted without a Stat
// declared there, so none can drift out of a hand-written sum.
func statSum(t *testing.T, ctx *BinaryContext, label string) {
	t.Helper()
	sums := map[string]int64{}
	for _, d := range StatDefs() {
		if d.SumTo != "" {
			sums[d.SumTo] += ctx.Stats[d.Name]
		}
	}
	for parent, sum := range sums {
		if want := ctx.Stats[parent]; sum != want {
			t.Errorf("%s: counters declared to sum into %q total %d, want %d (stats: %v)", label, parent, sum, want, ctx.Stats)
		}
	}
	if ctx.Stats["profile-total-count"] == 0 {
		t.Errorf("%s: no records counted", label)
	}
}

// TestProfileStatKeysSumToTotal pins the documented accounting
// invariant for all three profile kinds: LBR, non-LBR samples, and a
// stale v2 profile routed through the shape matcher.
func TestProfileStatKeysSumToTotal(t *testing.T) {
	// LBR: real edges, a call, a mid-function landing (ignored), and an
	// unresolvable record (dropped).
	ctx := buildProfBinary(t, 0)
	hot := ctx.ByName["hot"]
	fd := &profile.Fdata{LBR: true, Branches: append(lbrRecords(hot, 100),
		profile.Branch{From: profile.Loc{Sym: "_start", Off: 2}, To: profile.Loc{Sym: "hot", Off: 0}, Count: 40},
		profile.Branch{From: profile.Loc{Sym: "hot", Off: 3}, To: profile.Loc{Sym: "_start", Off: 9}, Count: 11},
		profile.Branch{From: profile.Loc{Sym: "nosuch", Off: 0}, To: profile.Loc{Sym: "hot", Off: 0}, Count: 3},
	)}
	applyTo(t, ctx, fd)
	statSum(t, ctx, "lbr")

	// Non-LBR samples, including one that cannot resolve.
	ctx = buildProfBinary(t, 0)
	sfd := sampleEverything(ctx, rand.New(rand.NewSource(2)))
	sfd.Samples = append(sfd.Samples, profile.Sample{At: profile.Loc{Sym: "nosuch", Off: 0}, Count: 9})
	applyTo(t, ctx, sfd)
	statSum(t, ctx, "samples")

	// Stale: records carry v1 offsets plus v1 shapes, applied to a v2
	// binary whose entry blocks grew pad instructions.
	v1 := buildProfBinary(t, 0)
	v2 := buildProfBinary(t, 3)
	v1hot := v1.ByName["hot"]
	stfd := &profile.Fdata{LBR: true,
		Branches: lbrRecords(v1hot, 50),
		Shapes:   ComputeShapes(v1),
	}
	applyTo(t, v2, stfd)
	statSum(t, v2, "stale")
	if v2.Stats["profile-stale-funcs"] == 0 {
		t.Error("stale profile never engaged the shape matcher")
	}
	if v2.Stats["profile-stale-count"] == 0 {
		t.Error("shape matcher recovered nothing")
	}
}

// TestLBRInferAlwaysRepairs: with InferAlways, an inconsistent LBR
// profile (edge counts lost to sampling skid) is rebalanced to exact
// consistency after classic flow repair.
func TestLBRInferAlwaysRepairs(t *testing.T) {
	ctx := buildProfBinary(t, 0)
	ctx.Opts.InferFlow = InferAlways
	hot := ctx.ByName["hot"]
	recs := lbrRecords(hot, 100)
	// Skew one edge so plain repair cannot make the counts consistent.
	recs[0].Count = 37
	fd := &profile.Fdata{LBR: true, Branches: recs}
	applyTo(t, ctx, fd)
	if hot.ProfileAcc != 1.0 {
		t.Errorf("InferAlways left accuracy %v, want 1.0", hot.ProfileAcc)
	}
	if ctx.FlowAccAfter != 1.0 {
		t.Errorf("FlowAccAfter %v, want 1.0", ctx.FlowAccAfter)
	}
	if ctx.Stats[StatProfileInferredFuncs.String()] == 0 {
		t.Error("profile-inferred-funcs not counted")
	}
}

// TestStaleMatchIndexBounds: a staleFunc's match entries are indices into
// fn.Blocks taken on trust from the matcher. One past the end, like an
// unmatched -1, drops the record instead of indexing with it.
func TestStaleMatchIndexBounds(t *testing.T) {
	ctx := buildProfBinary(t, 0)
	hot := ctx.ByName["hot"]
	old := new(shapeScratch).shape(hot)
	if len(old.Blocks) != 4 {
		t.Fatalf("hot has %d blocks, want the diamond's 4", len(old.Blocks))
	}
	sf := &staleFunc{old: old, match: []int32{int32(len(hot.Blocks)), -1, 2, -1}}
	var c statShard
	for i, b := range old.Blocks {
		applySample(hot, sf, profile.Sample{At: profile.Loc{Sym: "hot", Off: b.Off}, Count: 1 << i}, &c)
	}
	if c[StatProfileStaleCount] != 1<<2 || c[StatProfileStaleDropCount] != 1<<0+1<<1+1<<3 {
		t.Errorf("stale-count %d, stale-drop-count %d; want 4 and 11",
			c[StatProfileStaleCount], c[StatProfileStaleDropCount])
	}
	if got := hot.Blocks[2].ExecCount; got != 1<<2 {
		t.Errorf("matched block counted %d, want 4", got)
	}
	for i := range old.Blocks {
		if b := sf.block(hot, i); (b != nil) != (i == 2) {
			t.Errorf("block(%d) = %v, want a block only for the in-range match", i, b)
		}
	}
}

// TestRepairFlowCountsEachEdgeOnce: a conditional branch whose taken
// target is its own fall-through gives its block two edges into the
// next block. That block's in-flow is the sum of the two, each counted
// once, so flow repair must leave its count equal to that sum.
func TestRepairFlowCountsEachEdgeOnce(t *testing.T) {
	f := ir.NewFunc("twin", "t.mir", 10)
	next := f.AddBlock()
	f.Blocks[0].Ops = []ir.Op{{Kind: ir.OpMov, Dst: isa.RCX, Src: isa.RDI}}
	f.Blocks[0].Term = ir.Term{Kind: ir.TermBranch, CmpReg: isa.RCX, CmpImm: 50,
		Cc: isa.CondL, Then: next.Index, Else: next.Index} // lowered to `jl next`
	next.Ops = []ir.Op{{Kind: ir.OpMovImm, Dst: isa.RAX, Imm: 1}}
	next.Term = ir.Term{Kind: ir.TermReturn}
	start := ir.NewFunc("_start", "m.mir", 1)
	start.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RDI, Imm: 7},
		{Kind: ir.OpCall, Callee: "twin", SpillReg: isa.NoReg, LandingPad: -1},
	}
	start.Blocks[0].Term = ir.Term{Kind: ir.TermExit}
	p := &ir.Program{Modules: []*ir.Module{{Name: "m", Funcs: []*ir.Func{start, f}}}}
	p.Finalize()
	opts := cc.DefaultOptions()
	opts.TinyInlineOps = 1
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
	fn := ctx.ByName["twin"]
	if len(fn.Blocks) != 2 || len(fn.Blocks[0].Succs) != 2 ||
		fn.Blocks[0].Succs[0].To != fn.Blocks[1] || fn.Blocks[0].Succs[1].To != fn.Blocks[1] {
		t.Fatalf("twin is not `jl next` falling through to next:\n%s", loaderShapes(ctx)[fn.Ref()-1])
	}
	jl := fn.Blocks[0].LastInst()
	var call uint64 // the offset of _start's call of twin
	for _, in := range ctx.ByName["_start"].Blocks[0].Insts {
		if in.IsCall() {
			call = uint64(ctx.ByName["_start"].instOff(&in))
		}
	}
	fd := &profile.Fdata{LBR: true, Branches: []profile.Branch{
		{From: profile.Loc{Sym: "_start", Off: call}, To: profile.Loc{Sym: "twin"}, Count: 100},
		{From: profile.Loc{Sym: "twin", Off: uint64(fn.instOff(jl))}, To: profile.Loc{Sym: "twin", Off: blockOff(fn, fn.Blocks[1])}, Count: 30},
	}}
	applyTo(t, ctx, fd)
	var in uint64
	for _, e := range fn.Blocks[0].Succs {
		in += e.Count
	}
	if in == 0 || fn.Blocks[1].ExecCount != in {
		t.Errorf("next block count %d, want its in-flow %d (edges %+v)", fn.Blocks[1].ExecCount, in, fn.Blocks[0].Succs)
	}
}

// TestSumCountsAllocatesNothing checks the call tail's fold: on random
// call edges it gives each (caller, callee) pair once, in order, with the
// sum of its counts, and it folds in place without allocating. While it
// took the address of its range variable, that variable moved to the heap
// and the fold allocated once per edge.
func TestSumCountsAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := make([]CallEdge, 500)
	want := map[[2]FuncRef]uint64{}
	for i := range edges {
		e := CallEdge{FuncRef(1 + rng.Intn(20)), FuncRef(1 + rng.Intn(20)), uint64(rng.Intn(1000))}
		edges[i] = e
		want[[2]FuncRef{e.Caller, e.Callee}] += e.Count
	}
	byPair := func(a, b CallEdge) int {
		return cmp.Or(cmp.Compare(a.Caller, b.Caller), cmp.Compare(a.Callee, b.Callee))
	}
	count := func(e *CallEdge) *uint64 { return &e.Count }
	got := sumCounts(slices.Clone(edges), byPair, count)
	if len(got) != len(want) {
		t.Fatalf("folded to %d edges, want %d distinct pairs", len(got), len(want))
	}
	for i, e := range got {
		if i > 0 && byPair(got[i-1], e) >= 0 {
			t.Fatalf("edge %d %v does not follow %v in order", i, e, got[i-1])
		}
		if n := want[[2]FuncRef{e.Caller, e.Callee}]; e.Count != n {
			t.Errorf("%d -> %d: count %d, want %d", e.Caller, e.Callee, e.Count, n)
		}
	}
	buf := make([]CallEdge, len(edges))
	if n := testing.AllocsPerRun(10, func() {
		copy(buf, edges)
		sumCounts(buf, byPair, count)
	}); n != 0 {
		t.Errorf("sumCounts over %d edges allocated %v times, want 0", len(edges), n)
	}
}
