package core

import (
	"context"
	"reflect"
	"testing"
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
		reused, reusedOffs, err := ctx.emitFunction(fn, &shared)
		if err != nil {
			t.Fatalf("%s (reused scratch): %v", fn.Name, err)
		}
		fresh, freshOffs, err := ctx.emitFunction(fn, &emitScratch{})
		if err != nil {
			t.Fatalf("%s (fresh scratch): %v", fn.Name, err)
		}
		if !reflect.DeepEqual(reused, fresh) || !reflect.DeepEqual(reusedOffs, freshOffs) {
			t.Fatalf("%s: reused-scratch emission differs from fresh-scratch emission", fn.Name)
		}
	}
}
