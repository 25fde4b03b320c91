// Command heatmap renders the Figure 9 instruction-address heat map for
// a binary: it executes the program under the VM, accumulates fetched
// bytes over the executable address range, and prints the 64x64 log-scale
// grid (optionally CSV for plotting).
package main

import (
	"flag"
	"fmt"
	"os"

	"gobolt/internal/elfx"
	"gobolt/internal/heatmap"
	"gobolt/internal/vm"
)

func main() {
	csv := flag.Bool("csv", false, "emit CSV instead of the text grid")
	maxInstr := flag.Uint64("max-instr", 0, "stop after N instructions")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: heatmap [-csv] <binary>")
		os.Exit(2)
	}
	f, err := elfx.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	lo, hi := f.ExecSpan()
	m, err := vm.New(f)
	if err != nil {
		fatal(err)
	}
	h := heatmap.New(lo, hi)
	m.SetTracer(h.Tracer())
	if _, err := m.Run(*maxInstr); err != nil {
		fatal(err)
	}
	if *csv {
		fmt.Print(h.CSV())
	} else {
		fmt.Print(h.Render())
		fmt.Printf("hot span (95%% of fetches): %d bytes of %d total\n",
			h.HotSpan(0.95), hi-lo)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "heatmap:", err)
	os.Exit(1)
}
