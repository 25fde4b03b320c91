package passes

import (
	"bytes"
	"context"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/ld"
	"gobolt/internal/perf"
	"gobolt/internal/profile"
	"gobolt/internal/workload"
)

func linkWorkload(t testing.TB, spec workload.Spec) (*elfx.File, *profile.Fdata) {
	t.Helper()
	objs, err := cc.Compile(workload.Generate(spec), cc.DefaultOptions())
	if err != nil {
		t.Fatalf("compile %s: %v", spec.Name, err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true})
	if err != nil {
		t.Fatalf("link %s: %v", spec.Name, err)
	}
	fd, _, err := perf.RecordFile(res.File, perf.DefaultMode(), 0)
	if err != nil {
		t.Fatalf("record %s: %v", spec.Name, err)
	}
	return res.File, fd
}

// foldRun optimizes f with the real pipeline, under the given body digest
// if not nil, and returns who folded into whom, the icf-folded stat and
// the output bytes.
func foldRun(t *testing.T, f *elfx.File, fd *profile.Fdata, digest func([]byte) uint64) (map[string]string, int64, []byte) {
	t.Helper()
	if digest != nil {
		defer func(production func([]byte) uint64) { icfDigest = production }(icfDigest)
		icfDigest = digest
	}
	cx := context.Background()
	opts := core.DefaultOptions()
	opts.Jobs = 2
	ctx, err := core.NewContext(cx, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.ApplyProfile(cx, fd); err != nil {
		t.Fatal(err)
	}
	if err := core.NewPassManager(opts.Jobs).Run(cx, ctx, BuildPipeline(opts)); err != nil {
		t.Fatal(err)
	}
	folds := map[string]string{}
	for _, fn := range ctx.Funcs {
		if fn.FoldedInto != nil {
			folds[fn.Name] = fn.FoldedInto.Name
		}
		if fn.ICFDigest != 0 {
			t.Errorf("%s: digest survived the fold", fn.Name)
		}
	}
	res, err := ctx.Rewrite(cx)
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.File.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return folds, ctx.Stats["icf-folded"], out
}

// TestICFCollidingDigests: the digest only nominates fold candidates.
// With every body forced onto one digest (or, for the large workload,
// onto sixteen), bodies that differ must still not fold, identical ones
// must still fold into the first of their class in address order, and
// the output must not change by a byte.
func TestICFCollidingDigests(t *testing.T) {
	allCollide := func([]byte) uint64 { return 7 }
	// Sixteen chains that do not run into one another while probing.
	sixteen := func(b []byte) uint64 { return (uint64(len(b))&15 + 1) << 32 }

	exceptions := workload.Tiny()
	exceptions.ThrowFrac, exceptions.ColdProb = 0.9, 0.1
	continuous := workload.Tiny()
	continuous.EntryPadOps = 3
	clang := workload.Clang()
	clang.Iterations = 500

	for _, tc := range []struct {
		name   string
		spec   workload.Spec
		digest func([]byte) uint64
		long   bool
	}{
		{"quickstart", workload.Tiny(), allCollide, false},
		{"exceptions", exceptions, allCollide, false},
		{"continuous", continuous, allCollide, false},
		{"compiler-pgo", clang, sixteen, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("3k-function workload; skipped in -short")
			}
			f, fd := linkWorkload(t, tc.spec)
			wantFolds, wantStat, wantOut := foldRun(t, f, fd, nil)
			if wantStat == 0 || int(wantStat) != len(wantFolds) {
				t.Fatalf("reference run folded %d functions (stat %d); the test exercises nothing", len(wantFolds), wantStat)
			}
			gotFolds, gotStat, gotOut := foldRun(t, f, fd, tc.digest)
			if gotStat != wantStat {
				t.Errorf("icf-folded = %d under colliding digests, want %d", gotStat, wantStat)
			}
			for name, into := range gotFolds {
				if wantFolds[name] != into {
					t.Errorf("%s folded into %s, want %q", name, into, wantFolds[name])
				}
			}
			for name, into := range wantFolds {
				if _, ok := gotFolds[name]; !ok {
					t.Errorf("%s no longer folds into %s", name, into)
				}
			}
			if !bytes.Equal(gotOut, wantOut) {
				t.Error("output bytes differ under colliding digests")
			}
		})
	}
}

// TestICFFoldWithoutHashPass: the fold computes digests itself when no
// ICFHash pass ran, with the same result.
func TestICFFoldWithoutHashPass(t *testing.T) {
	f, fd := linkWorkload(t, workload.Tiny())
	cx := context.Background()
	folds := func(passes ...core.Pass) map[string]string {
		ctx, err := core.NewContext(cx, f, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.ApplyProfile(cx, fd); err != nil {
			t.Fatal(err)
		}
		if err := core.NewPassManager(1).Run(cx, ctx, passes); err != nil {
			t.Fatal(err)
		}
		m := map[string]string{}
		for _, fn := range ctx.Funcs {
			if fn.FoldedInto != nil {
				m[fn.Name] = fn.FoldedInto.Name
			}
		}
		return m
	}
	want := folds(core.ForEachFunction(ICFHash{}), ICF{})
	got := folds(ICF{})
	if len(want) == 0 {
		t.Fatal("nothing folds; the test exercises nothing")
	}
	if len(got) != len(want) {
		t.Fatalf("fold alone folded %d functions, hash+fold %d", len(got), len(want))
	}
	for name, into := range want {
		if got[name] != into {
			t.Errorf("%s folded into %q, want %s", name, got[name], into)
		}
	}
}

// BenchmarkICFHash measures one icf-hash pass (canonical encoding plus
// digest of every eligible function, through the pass manager) over a
// 3k-function binary.
func BenchmarkICFHash(b *testing.B) {
	spec := workload.Clang()
	spec.Iterations = 500
	f, _ := linkWorkload(b, spec)
	cx := context.Background()
	opts := core.DefaultOptions()
	opts.Jobs = 1
	ctx, err := core.NewContext(cx, f, opts)
	if err != nil {
		b.Fatal(err)
	}
	pass := []core.Pass{core.ForEachFunction(ICFHash{})}
	b.ReportAllocs()
	for b.Loop() {
		if err := core.NewPassManager(1).Run(cx, ctx, pass); err != nil {
			b.Fatal(err)
		}
	}
}
