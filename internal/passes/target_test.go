package passes

import (
	"context"
	"slices"
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
)

// TestSymbolicTargetsResolve: a call's callee is read from its word, not
// stored beside it, so the three passes that change what a call names
// must leave the emitter the same function symbol an annotation named:
// worker's call through a PLT stub (resolved by plt), its invoke
// promoted by ICP (the cmp's immediate and the direct call) and its
// calls of dup2 (folded into dup1 by ICF). In the rewritten binary each
// must reach its function's final address — not the stub, not the
// input address of a moved function, not a placeholder.
func TestSymbolicTargetsResolve(t *testing.T) {
	p := workInvoke(t)
	ext := ir.NewFunc("ext", "ext.mir", 1)
	ext.Blocks[0].Ops = []ir.Op{{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RDI}}
	ext.Blocks[0].Term = ir.Term{Kind: ir.TermReturn}
	p.Modules = append(p.Modules, &ir.Module{Name: "libext", Shared: true, Funcs: []*ir.Func{ext}})
	worker := p.Modules[0].Funcs[1]
	added := false
	for _, b := range worker.Blocks {
		if k := slices.IndexFunc(b.Ops, func(op ir.Op) bool { return op.Callee == "stubfn" }); k >= 0 {
			b.Ops = slices.Insert(b.Ops, k+1,
				ir.Op{Kind: ir.OpMov, Dst: isa.RDI, Src: isa.RAX},
				ir.Op{Kind: ir.OpCall, Callee: "ext", SpillReg: isa.NoReg, LandingPad: -1})
			added = true
			break
		}
	}
	if !added {
		t.Fatal("worker has no call of stubfn to follow")
	}
	f, want := linkWork(t, p)
	fd := record(t, f, true)

	cx := context.Background()
	defer func(t float64) { icpThreshold = t }(icpThreshold)
	icpThreshold = 0.4 // the two indirect targets alternate
	opts := core.DefaultOptions()
	opts.InlineSmall = false // it would splice dup1 and dup2 into worker
	ctx, err := core.NewContext(cx, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	stub := ^uint64(0)
	for a, target := range ctx.PLTStubs {
		if g := ctx.FuncByAddr(target); g != nil && g.Name == "ext" {
			stub = a
		}
	}
	if stub == ^uint64(0) {
		t.Fatal("no PLT stub resolves to ext")
	}
	if err := ctx.ApplyProfile(cx, fd); err != nil {
		t.Fatal(err)
	}
	if err := core.NewPassManager(1).Run(cx, ctx, BuildPipeline(opts)); err != nil {
		t.Fatal(err)
	}
	for _, stat := range []string{"plt-calls", "icp-promoted", "icf-folded"} {
		if ctx.Stats[stat] == 0 {
			t.Fatalf("fixture: %s = 0", stat)
		}
	}
	if ctx.ByName["dup2"].FoldedInto != ctx.ByName["dup1"] {
		t.Fatal("fixture: dup2 was not folded into dup1")
	}
	// The annotations as the passes leave them.
	fn := ctx.ByName["worker"]
	var cmps int
	for _, b := range fn.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.I.Op == isa.CMPri && ctx.TargetSym(fn, in) != core.NoFunc {
				cmps++
				if g := ctx.Func(ctx.TargetSym(fn, in)); g.Name != "leafA" {
					t.Errorf("ICP's cmp names %s, want leafA", g.Name)
				}
			}
			if in.I.Op == isa.CALL && ctx.TargetSym(fn, in) == core.NoFunc {
				t.Errorf("call %s names no function", in.I.String())
			}
		}
	}
	if cmps != 1 {
		t.Fatalf("%d symbolic cmps, want ICP's one", cmps)
	}

	res, err := ctx.Rewrite(cx)
	if err != nil {
		t.Fatal(err)
	}
	image, err := res.File.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	out, err := elfx.Read(image)
	if err != nil {
		t.Fatal(err)
	}
	if got := run(t, out); got != want {
		t.Fatalf("the rewrite changed the checksum: %d, want %d", got, want)
	}
	addr := func(name string) uint64 {
		s, ok := out.SymbolByName(name)
		if !ok {
			t.Fatalf("no %s symbol in the output", name)
		}
		return s.Value
	}
	for _, name := range []string{"ext", "leafA", "dup1"} {
		if addr(name) == ctx.ByName[name].Addr {
			t.Fatalf("fixture: %s did not move", name)
		}
	}
	calls, imms := map[uint64]bool{}, map[uint64]bool{}
	for _, name := range []string{"worker", "worker.cold.0"} {
		s, ok := out.SymbolByName(name)
		if !ok {
			continue
		}
		code, err := out.ReadAt(s.Value, int(s.Size))
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(code); {
			var in isa.Inst
			n, err := isa.Decode(&in, code[off:], s.Value+uint64(off))
			if err != nil {
				t.Fatalf("%s+%#x: %v", name, off, err)
			}
			switch in.Op {
			case isa.CALL:
				calls[in.TargetAddr()] = true
			case isa.CMPri:
				imms[uint64(in.Imm())] = true
			}
			off += n
		}
	}
	for _, tc := range []struct {
		what   string
		target uint64
		seen   map[uint64]bool
		not    []uint64
	}{
		{"the PLT-resolved call", addr("ext"), calls, []uint64{stub, ctx.ByName["ext"].Addr}},
		{"ICP's direct call", addr("leafA"), calls, []uint64{0, ctx.ByName["leafA"].Addr}},
		{"ICP's cmp", addr("leafA"), imms, []uint64{1 << 30, ctx.ByName["leafA"].Addr}},
		{"the call of folded dup2", addr("dup1"), calls, []uint64{ctx.ByName["dup2"].Addr, ctx.ByName["dup1"].Addr}},
	} {
		if !tc.seen[tc.target] {
			t.Errorf("%s: nothing in worker reaches %#x", tc.what, tc.target)
		}
		for _, a := range tc.not {
			if a != tc.target && tc.seen[a] {
				t.Errorf("%s: worker still reaches %#x", tc.what, a)
			}
		}
	}
}
