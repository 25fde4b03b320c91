// Exceptions: demonstrates that gobolt preserves C++-style exception
// machinery while aggressively moving code (§3.4, Figure 4): cold landing
// pads go to the cold fragment with the other cold blocks, the CFI and
// LSDA tables are rebuilt for the new layout, and the VM's CFI-driven
// unwinder still lands every throw on the right handler.
//
//	go run ./examples/exceptions
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"gobolt/bolt"
	"gobolt/internal/bench"
	"gobolt/internal/cc"
	"gobolt/internal/cfi"
	"gobolt/internal/ld"
	"gobolt/internal/perf"
	"gobolt/internal/uarch"
	"gobolt/internal/vm"
	"gobolt/internal/workload"
)

func main() {
	cx := context.Background()
	spec := workload.Tiny()
	spec.ThrowFrac = 0.9 // make exception paths ubiquitous
	spec.ColdProb = 0.1  // and reasonably frequent at runtime
	prog := workload.Generate(spec)

	objs, err := cc.Compile(prog, cc.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	linked, err := ld.Link(objs, ld.Options{EmitRelocs: true})
	if err != nil {
		log.Fatal(err)
	}

	m, err := vm.New(linked.File)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := m.Run(0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline: result=%d, %d exceptions thrown and caught\n", m.Result(), m.C.Throws)

	fd, _, err := perf.RecordFile(linked.File, perf.DefaultMode(), 0)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := bolt.OpenELF(linked.File) // splitting moves cold landing pads too
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
	fmt.Printf("gobolt: split %d functions; %d cold blocks moved\n",
		rep.Metrics["split-functions"], rep.Metrics["split-cold-blocks"])

	// Show the rebuilt exception metadata.
	out := sess.Output()
	frames, _ := cfi.DecodeFrames(out.Section(cfi.FrameSectionName).Data)
	withLSDA := 0
	for _, f := range frames {
		if f.LSDA != 0 {
			withLSDA++
		}
	}
	fmt.Printf("rebuilt CFI: %d FDEs (%d with exception tables); cold section %d bytes\n",
		len(frames), withLSDA, rep.ColdTextSize)

	// The proof: run the rewritten binary; every unwind must still work.
	m2, err := vm.New(out)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := m2.Run(0); err != nil {
		log.Fatal("unwinding broke after rewriting: ", err)
	}
	fmt.Printf("bolted:   result=%d, %d exceptions thrown and caught\n", m2.Result(), m2.C.Throws)
	if m2.Result() != m.Result() || m2.C.Throws != m.C.Throws {
		fmt.Println("MISMATCH — this would be a CFI/LSDA rewriting bug")
		os.Exit(1)
	}
	before, _ := bench.Measure(linked.File, uarch.DefaultConfig(), false)
	after, _ := bench.Measure(out, uarch.DefaultConfig(), false)
	if before != nil && after != nil {
		fmt.Printf("speedup with exception paths split out: %.2f%%\n",
			100*uarch.Speedup(before.Metrics, after.Metrics))
	}
	// Print a Figure 4-style CFG dump of a function with landing pads.
	hottest, err := sess.HottestFunctions(50)
	if err != nil {
		log.Fatal(err)
	}
	for _, fn := range hottest {
		if fn.HasLSDA && fn.Simple {
			fmt.Println("\nFigure 4-style dump of one exception-handling function:")
			if err := sess.PrintCFG(os.Stdout, fn.Name); err != nil {
				log.Fatal(err)
			}
			break
		}
	}
}
