// Quickstart: the whole BOLT workflow in one file, driven through the
// public bolt package.
//
//	go run ./examples/quickstart
//
// It builds a small synthetic binary, profiles it under the VM with
// LBR-style sampling, optimizes it with a staged bolt.Session
// (open → profile → optimize → output), verifies the optimized binary
// computes the same result, and compares simulated CPU time.
package main

import (
	"context"
	"fmt"
	"log"

	"gobolt/bolt"
	"gobolt/internal/bench"
	"gobolt/internal/cc"
	"gobolt/internal/ld"
	"gobolt/internal/perf"
	"gobolt/internal/uarch"
	"gobolt/internal/workload"
)

func main() {
	cx := context.Background()

	// 1. "Source code": a seeded synthetic program.
	prog := workload.Generate(workload.Tiny())

	// 2. Compile and link with relocations kept (--emit-relocs), as the
	//    paper's relocations mode requires.
	objs, err := cc.Compile(prog, cc.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	linked, err := ld.Link(objs, ld.Options{EmitRelocs: true, ICF: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built: %d bytes of .text\n", linked.TextSize)

	// 3. Profile with sampled LBRs (perf record -e cycles:u -j any,u).
	fd, m, err := perf.RecordFile(linked.File, perf.DefaultMode(), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled: result=%d, %d branch records\n", m.Result(), len(fd.Branches))

	// 4. gobolt through the library: open a session on the linked image,
	//    attach the in-memory profile, optimize.
	sess, err := bolt.OpenELF(linked.File)
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.LoadProfile(cx, bolt.Fdata(fd)); err != nil {
		log.Fatal(err)
	}
	rep, err := sess.Optimize(cx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bolted: moved %d functions, split %d, folded %d (reordered %d)\n",
		rep.MovedFuncs, rep.SplitFuncs, rep.FoldedFuncs, rep.Metrics["reorder-bbs-funcs"])

	// 5. Verify semantics and measure both binaries under the simulator.
	before, err := bench.Measure(linked.File, uarch.DefaultConfig(), false)
	if err != nil {
		log.Fatal(err)
	}
	after, err := bench.Measure(sess.Output(), uarch.DefaultConfig(), false)
	if err != nil {
		log.Fatal(err)
	}
	if before.Checksum != after.Checksum {
		log.Fatalf("BUG: checksum changed: %d -> %d", before.Checksum, after.Checksum)
	}
	fmt.Printf("verified: identical result %d\n", after.Checksum)
	fmt.Printf("cycles: %d -> %d (%.2f%% speedup)\n",
		before.Metrics.Cycles, after.Metrics.Cycles,
		100*uarch.Speedup(before.Metrics, after.Metrics))
}
