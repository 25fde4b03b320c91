package passes

import (
	"context"
	"strings"
	"testing"

	"gobolt/internal/core"
	"gobolt/internal/isa"
)

// TestICPTieGoesToLesserName: an indirect call site whose two callees
// took equal counts promotes the callee with the lesser name. The
// histogram is ordered by address (FuncRef), and the lesser name comes
// last in the first case and first in the second, so a tie left to that
// order, either way round, fails one of them.
func TestICPTieGoesToLesserName(t *testing.T) {
	defer func(t float64) { icpThreshold = t }(icpThreshold)
	icpThreshold = 0.5 // a tie takes exactly half the calls
	f, _ := buildWork(t)
	for _, tc := range []struct{ low, high, want string }{
		{"leafA", "dup1", "dup1"},
		{"leafA", "repzfn", "leafA"},
	} {
		ctx, err := core.NewContext(context.Background(), f, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		worker, low, high := ctx.ByName["worker"], ctx.ByName[tc.low], ctx.ByName[tc.high]
		if low.Ref() >= high.Ref() {
			t.Fatalf("fixture: %s at %#x is not below %s at %#x", low.Name, low.Addr, high.Name, high.Addr)
		}
		var site uint64
		for _, b := range worker.Blocks {
			for _, in := range b.Insts {
				if in.I.Op == isa.CALLr {
					site = worker.InstAddr(&in)
				}
			}
		}
		ctx.CallTargets = []core.CallTarget{
			{Site: site, Callee: low.Ref(), Count: 10},
			{Site: site, Callee: high.Ref(), Count: 10},
		}
		if err := (ICP{}).Run(ctx); err != nil {
			t.Fatal(err)
		}
		if n := ctx.Stats["icp-promoted"]; n != 1 {
			t.Fatalf("%s/%s: icp-promoted = %d, want 1", tc.low, tc.high, n)
		}
		promoted := ""
		for _, b := range worker.Blocks {
			if strings.HasSuffix(b.Label, ".icp_d") {
				promoted = ctx.Func(ctx.TargetSym(worker, &b.Insts[0])).Name
			}
		}
		if promoted != tc.want {
			t.Errorf("%s/%s tie: promoted %q, want %s", tc.low, tc.high, promoted, tc.want)
		}
	}
}
