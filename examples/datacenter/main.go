// Datacenter: the paper's headline scenario (§6.1) — a large,
// front-end-bound service built with LTO and link-time HFSort (the
// production baseline), then optimized with gobolt. Reports the Figure 5
// speedup, the Figure 6 micro-architecture metrics, and the Figure 9
// hot-code packing for an HHVM-like workload.
//
//	go run ./examples/datacenter [-scale 0.3]
package main

import (
	"flag"
	"fmt"
	"log"

	"gobolt/internal/bench"
	"gobolt/internal/core"
	"gobolt/internal/perf"
	"gobolt/internal/uarch"
	"gobolt/internal/workload"
)

func main() {
	scale := flag.Float64("scale", 0.3, "workload scale")
	flag.Parse()

	spec := workload.HHVM()
	spec.Iterations = int(float64(spec.Iterations) * *scale)
	mode := perf.DefaultMode()

	fmt.Println("building hhvm-like service (LTO + link-time HFSort baseline)...")
	base, lres, err := bench.Build(spec, bench.CfgHFSortLTO, mode)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d functions, %d KB text\n", len(base.FuncSymbols()), lres.TextSize/1024)

	fmt.Println("profiling and applying gobolt...")
	bolted, rep, err := bench.Bolt(base, mode, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	n := rep.Metrics.Counters
	fmt.Printf("  passes: reordered %d functions' blocks, split %d, folded %d, ICP %d, PLT %d\n",
		n["reorder-bbs-funcs"], n["split-functions"], n["icf-folded"], n["icp-promoted"], n["plt-calls"])

	fmt.Println("measuring under the microarchitecture simulator...")
	mb, err := bench.Measure(base, uarch.DefaultConfig(), true)
	if err != nil {
		log.Fatal(err)
	}
	mo, err := bench.Measure(bolted, uarch.DefaultConfig(), true)
	if err != nil {
		log.Fatal(err)
	}
	if mb.Checksum != mo.Checksum {
		log.Fatalf("BUG: semantics changed")
	}
	b, o := mb.Metrics, mo.Metrics
	fmt.Printf("\nspeedup: %.2f%% (Figure 5 for hhvm)\n", 100*uarch.Speedup(b, o))
	fmt.Println("miss reductions (Figure 6):")
	fmt.Printf("  branch  %6.2f%%\n", 100*uarch.Reduction(b.BranchMiss, o.BranchMiss))
	fmt.Printf("  i-cache %6.2f%%\n", 100*uarch.Reduction(b.L1IMiss, o.L1IMiss))
	fmt.Printf("  i-tlb   %6.2f%%\n", 100*uarch.Reduction(b.ITLBMiss, o.ITLBMiss))
	fmt.Printf("  llc     %6.2f%%\n", 100*uarch.Reduction(b.LLCMiss, o.LLCMiss))
	fmt.Println("hot-code packing (Figure 9, 95% of fetches):")
	fmt.Printf("  before: %d KB   after: %d KB\n",
		mb.Heat.HotSpan(0.95)/1024, mo.Heat.HotSpan(0.95)/1024)
}
