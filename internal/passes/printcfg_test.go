package passes

import (
	"bytes"
	"context"
	"flag"
	"os"
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/ir"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from the current output")

// TestPrintCFGGolden pins PrintCFG's text for a function carrying every
// out-of-line instruction fact at once — source lines, a call with a
// landing pad, a PIC jump table, and an ICP-promoted invoke (symbolic
// call target and compare immediate) — after loading and after the whole
// pipeline. The golden text was recorded before core.Inst stopped
// storing those facts inline, so it proves the compact form prints what
// the wide one did.
func TestPrintCFGGolden(t *testing.T) {
	p := workProgram()
	worker := p.Modules[0].Funcs[1]
	promoted := false
	for _, b := range worker.Blocks {
		for i := range b.Ops {
			if b.Ops[i].Kind == ir.OpCallIndirect {
				b.Ops[i].LandingPad = 9 // worker's landing-pad block
				promoted = true
			}
		}
	}
	if !promoted {
		t.Fatal("worker has no indirect call to turn into an invoke")
	}
	f, _ := linkWork(t, p)
	fd := record(t, f, true)

	cx := context.Background()
	defer func(t float64) { icpThreshold = t }(icpThreshold)
	icpThreshold = 0.4 // the two indirect targets alternate
	opts := core.DefaultOptions()
	ctx, err := core.NewContext(cx, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.ApplyProfile(cx, fd); err != nil {
		t.Fatal(err)
	}
	fn := ctx.ByName["worker"]
	var got bytes.Buffer
	ctx.PrintCFG(&got, fn)
	if err := core.NewPassManager(1).Run(cx, ctx, BuildPipeline(opts)); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats["icp-promoted"] == 0 {
		t.Fatal("the invoke was not promoted")
	}
	ctx.PrintCFG(&got, fn)

	const path = "testdata/worker_cfg.golden"
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("PrintCFG(worker) differs from %s:\n%s", path, got.Bytes())
	}
}
