// Compiler-PGO: the §6.2 experiment — a Clang-like binary built four
// ways (plain, +BOLT, PGO+LTO, PGO+LTO+BOLT), evaluated on inputs
// different from the training input. Demonstrates the paper's key claim:
// post-link optimization does not merely overlap with compiler PGO; the
// two compose, because the compiler's source-keyed profile merges inlined
// copies (Figure 2) while gobolt sees per-address truth.
//
//	go run ./examples/compiler-pgo [-scale 0.25]
package main

import (
	"flag"
	"fmt"
	"log"

	"gobolt/internal/bench"
)

func main() {
	scale := flag.Float64("scale", 0.25, "workload scale")
	flag.Parse()

	fmt.Println("running the Figure 7 matrix on a clang-like workload...")
	rows, report, err := bench.Fig7(bench.Scale(*scale))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report)

	// The shape that matters (paper Figure 7): BOLT alone is competitive
	// with PGO+LTO, and the combination beats both.
	var bolt, pgo, both float64
	for _, r := range rows {
		bolt += r.BOLT
		pgo += r.PGO
		both += r.PGOBOLT
	}
	n := float64(len(rows))
	fmt.Printf("\naverages: BOLT %.2f%%  PGO+LTO %.2f%%  PGO+LTO+BOLT %.2f%%\n",
		100*bolt/n, 100*pgo/n, 100*both/n)
	if both > pgo && both > 0 {
		fmt.Println("=> gains compose: post-link layout is complementary to compiler PGO")
	}
}
