package core

import (
	"context"
	"testing"

	"gobolt/internal/cfi"
)

// Microbenchmarks for the pipeline's hot phases, over the same linked
// fixture the loader tests use. Run with -benchmem; compare runs with
// benchstat. The end-to-end clang-workload numbers live in boltbench
// (-experiment speed); these isolate the core phases for profiling
// tight loops (go test -run=- -bench=. -cpuprofile/-memprofile).

// BenchmarkLoad measures discovery + parallel disassembly + CFG
// construction (NewContext end to end).
func BenchmarkLoad(b *testing.B) {
	f := buildLoaderFile(b, 64)
	opts := DefaultOptions()
	opts.Jobs = 1
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewContext(context.Background(), f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmitFunctions measures pure code generation: every simple
// function assembled through one worker scratch into the emitter's
// tables, no layout or patching.
func BenchmarkEmitFunctions(b *testing.B) {
	ctx := loadSlabCtx(b, 1)
	e := &emitter{ctx: ctx}
	e.prepare(ctx.SimpleFuncs())
	var sc emitScratch
	b.ReportAllocs()
	for b.Loop() {
		for i := range e.funcs {
			if err := e.emit(&sc, i); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStaleCompute measures stale matching on one warmed
// profile:apply worker: every function's current shape built and matched
// against a profiled shape one byte off, in the worker's buffers.
func BenchmarkStaleCompute(b *testing.B) {
	f := buildLoaderFile(b, 64)
	opts := DefaultOptions()
	opts.Jobs = 1
	ctx, err := NewContext(context.Background(), f, opts)
	if err != nil {
		b.Fatal(err)
	}
	sm, funcs := staleFixture(b, ctx)
	var sc staleScratch
	b.ReportAllocs()
	for b.Loop() {
		for _, fn := range funcs {
			sm.compute(fn, &sc)
		}
	}
}

// BenchmarkRewrite measures the back half of the pipeline: emission plus
// layout, relocation patching, and metadata regeneration (Rewrite is
// repeatable on a loaded context; its only CFG mutation, JCC inversion,
// reaches a fixpoint on the first iteration).
func BenchmarkRewrite(b *testing.B) {
	ctx := loadSlabCtx(b, 1)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ctx.Rewrite(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInternState measures the loader's per-instruction interning
// call on the state sequence of a framed function: a standard prologue,
// a long body in the steady state, and the epilogue.
func BenchmarkInternState(b *testing.B) {
	var seq []cfi.State
	st := cfi.InitialState()
	seq = append(seq, st)
	st.CfaOff = 16
	st.Save(6, -16)
	seq = append(seq, st)
	st.CfaReg = 6
	seq = append(seq, st)
	for i, r := range []uint8{3, 12, 13} {
		st.Save(r, int32(-24-8*i))
		seq = append(seq, st)
	}
	steady := st
	for i := 0; i < 40; i++ {
		seq = append(seq, steady)
	}
	for _, r := range []uint8{13, 12, 3} {
		st.Restore(r)
		seq = append(seq, st)
	}
	b.ReportAllocs()
	for b.Loop() {
		fn := &BinaryFunction{}
		for i := range seq {
			fn.InternState(seq[i])
		}
	}
}
