package passes

import (
	"context"
	"slices"
	"strings"
	"testing"

	"gobolt/internal/bat"
	"gobolt/internal/core"
	"gobolt/internal/isa"
)

// callrSite returns the block and index of worker's indirect call.
func callrSite(t *testing.T, worker *core.BinaryFunction) (*core.BasicBlock, int) {
	t.Helper()
	for _, b := range worker.Blocks {
		for i := range b.Insts {
			if b.Insts[i].I.Op == isa.CALLr {
				return b, i
			}
		}
	}
	t.Fatal("worker has no indirect call")
	return nil, 0
}

// TestCopiedInstKeepsLine: an instruction a pass copies keeps its origin,
// so its source line, but no longer stands for the original: the
// instructions inline-small splices out of the leaves into worker, and the
// cmp and the two calls ICP makes of worker's indirect call, each read
// their origin's source line and InstAddr 0, and the rewritten worker's
// BAT never translates back to the promoted call.
func TestCopiedInstKeepsLine(t *testing.T) {
	f, _ := buildWork(t)
	ctx, err := core.NewContext(context.Background(), f, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	worker, leaf := ctx.ByName["worker"], ctx.ByName["leafA"]
	type line struct {
		file string
		line int32
	}
	lineOf := func(fn *core.BinaryFunction, in *core.Inst) line {
		file, l := fn.SourceLine(in)
		return line{file, l}
	}
	// The leaves share one source line, so every spliced copy, whichever
	// leaf it came from, must read it.
	leafLine := lineOf(leaf, &leaf.Blocks[0].Insts[0])
	if leafLine.file != "leaf.mir" {
		t.Fatalf("fixture: leafA reads line %v", leafLine)
	}
	b, i := callrSite(t, worker)
	site, siteLine := worker.InstAddr(&b.Insts[i]), lineOf(worker, &b.Insts[i])
	if site == 0 || siteLine.file == "" {
		t.Fatalf("fixture: the indirect call at %#x has no source line", site)
	}

	if err := (InlineSmall{}).Run(ctx); err != nil {
		t.Fatal(err)
	}
	ctx.CallTargets = []core.CallTarget{{Site: site, Callee: leaf.Ref(), Count: 10}}
	if err := (ICP{}).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats["inline-small"] == 0 || ctx.Stats["icp-promoted"] != 1 {
		t.Fatalf("fixture: inline-small = %d, icp-promoted = %d, want both", ctx.Stats["inline-small"], ctx.Stats["icp-promoted"])
	}

	spliced, icp := 0, 0
	for _, b := range worker.Blocks {
		for k := range b.Insts {
			in := &b.Insts[k]
			switch {
			case in.I.Op == isa.CMPri && ctx.TargetSym(worker, in) != core.NoFunc,
				in.IsCall() && (strings.HasSuffix(b.Label, ".icp_d") || strings.HasSuffix(b.Label, ".icp_i")):
				icp++
				if got := lineOf(worker, in); got != siteLine {
					t.Errorf("ICP's %s reads line %v, want the call's %v", in.I.String(), got, siteLine)
				}
			case worker.InstAddr(in) == 0 && in.I.Op != isa.JCC:
				if got := lineOf(worker, in); got != leafLine {
					t.Errorf("spliced %s reads line %v, want the leaves' %v", in.I.String(), got, leafLine)
				}
				spliced++
				continue
			default:
				continue
			}
			if a := worker.InstAddr(in); a != 0 {
				t.Errorf("ICP's %s reads InstAddr %#x, want 0", in.I.String(), a)
			}
		}
	}
	if body := len(leaf.Blocks[0].Insts) - 1; icp != 3 || spliced < body {
		t.Fatalf("found %d ICP instructions and %d spliced, want 3 and at least leafA's %d", icp, spliced, body)
	}

	res, err := ctx.Rewrite(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := bat.FromFile(res.File)
	if err != nil {
		t.Fatal(err)
	}
	sym, ok := res.File.SymbolByName("worker")
	if !ok {
		t.Fatal("no worker symbol in the output")
	}
	for a := sym.Value; a < sym.Value+sym.Size; a++ {
		if fn, off, ok := tab.Translate(a); ok && fn == "worker" && worker.Addr+off == site {
			t.Fatalf("output %#x translates to the promoted call at +%#x: a copy anchored BAT", a, off)
		}
	}
}

// TestPromoteAllocatesThreePerSite: promote makes three allocations per
// site — the new blocks with their edges, the instructions, the labels —
// once fn.Blocks has room, which Run makes once per function.
func TestPromoteAllocatesThreePerSite(t *testing.T) {
	f, _ := buildWork(t)
	ctx, err := core.NewContext(context.Background(), f, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	worker, leaf := ctx.ByName["worker"], ctx.ByName["leafA"]
	b, i := callrSite(t, worker)
	const runs = 20
	type clone struct {
		fn *core.BinaryFunction
		b  *core.BasicBlock
	}
	clones := make([]clone, runs+1) // AllocsPerRun warms up with one run
	for k := range clones {
		fn := *worker
		fn.Blocks = slices.Grow(slices.Clone(worker.Blocks), 3)
		cb := *b
		cb.Insts = slices.Clone(b.Insts)
		fn.Blocks[slices.Index(worker.Blocks, b)] = &cb
		clones[k] = clone{&fn, &cb}
	}
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		promote(clones[k].fn, clones[k].b, i, leaf, 10, 12)
		k++
	})
	if allocs > 3 {
		t.Errorf("promote made %.0f allocations per site, want at most 3", allocs)
	}
	c := clones[0]
	if n := len(c.fn.Blocks); n != len(worker.Blocks)+3 || c.fn.Blocks[n-3].Label != b.Label+".icp_d" ||
		c.fn.Blocks[n-2].Label != b.Label+".icp_i" || c.fn.Blocks[n-1].Label != b.Label+".icp_c" {
		t.Errorf("promote's blocks: %d, labels %q %q %q", n,
			c.fn.Blocks[n-3].Label, c.fn.Blocks[n-2].Label, c.fn.Blocks[n-1].Label)
	}
}
