// Command gobolt is the post-link binary optimizer: the command-line
// driver for the Figure 3 pipeline, with flags mirroring the llvm-bolt
// invocation used in the paper (§6.2.1):
//
//	gobolt binary -data perf.fdata -o binary.bolt \
//	    -reorder-blocks=cache+ -reorder-functions=hfsort+ \
//	    -split-functions=3 -split-all-cold -split-eh -icf=1 -dyno-stats
//
// It is a thin flag→option adapter over the bolt library package: all
// pipeline work happens in bolt.Session, every failure is a returned
// error (the only os.Exit lives in main), and Ctrl-C cancels the
// pipeline through context cancellation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"gobolt/bolt"
	"gobolt/internal/core"
	"gobolt/internal/hfsort"
	"gobolt/internal/layout"
	"gobolt/internal/obsv"
)

// errUsage marks a bad invocation; main exits 2 (the flag-package
// convention) after the usage line or the rejected flag value was
// printed, everything else exits 1.
var errUsage = errors.New("usage")

func main() {
	if err := run(); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "gobolt:", err)
		os.Exit(1)
	}
}

// badFlag reports a flag value its Parse function rejected (the error
// names the valid ones) and marks the invocation as a usage error.
func badFlag(name string, err error) error {
	fmt.Fprintf(os.Stderr, "gobolt: -%s: %v\n", name, err)
	return errUsage
}

func run() error {
	data := flag.String("data", "", "fdata profile file (from perf2bolt)")
	out := flag.String("o", "", "output binary path (default <input>.bolt)")
	reorderBlocks := flag.String("reorder-blocks", "cache+", "block layout: none|reverse|ph|cache+")
	reorderFuncs := flag.String("reorder-functions", "hfsort+", "function layout: none|exec|hfsort|hfsort+")
	splitFuncs := flag.Int("split-functions", 3, "hot/cold splitting level (0 = off)")
	splitAllCold := flag.Bool("split-all-cold", true, "move all cold blocks to the cold section")
	splitEH := flag.Bool("split-eh", true, "split exception landing pads")
	icf := flag.Int("icf", 1, "identical code folding (0 = off)")
	icp := flag.Bool("icp", true, "indirect call promotion")
	inlineSmall := flag.Bool("inline-small", true, "inline small functions")
	simplifyRO := flag.Bool("simplify-ro-loads", true, "fold constant loads from .rodata")
	plt := flag.Bool("plt", true, "bypass PLT stubs for direct calls")
	peepholes := flag.Bool("peepholes", true, "peephole cleanups")
	frameOpts := flag.Bool("frame-opts", true, "remove dead caller-saved spills")
	shrinkWrap := flag.Bool("shrink-wrapping", true, "move cold-only callee-saved spills")
	sctc := flag.Bool("sctc", true, "simplify conditional tail calls")
	enableBAT := flag.Bool("enable-bat", true, "write the BOLT Address Translation table (.bolt.bat) for continuous profiling")
	staleMatch := flag.Bool("stale-matching", true, "recover stale profile records via CFG shape matching (v2 profiles)")
	inferFlow := flag.String("infer-flow", "auto", "minimum-cost-flow profile inference: auto (non-LBR sample profiles), always (also repair LBR/stale/translated profiles), never (legacy proportional estimator)")
	lite := flag.Bool("lite", false, "only process functions with profile samples")
	jobs := flag.Int("jobs", 0, "worker threads for the parallel phases — loader disasm+CFG, function passes, code emission (0 = GOMAXPROCS, 1 = serial)")
	timePasses := flag.Bool("time-passes", false, "print per-pass wall time and stat deltas")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of the run (load in Perfetto or chrome://tracing)")
	reportJSON := flag.String("report-json", "", "write the machine-readable run report (versioned JSON) to this path; \"-\" writes to stdout")
	verify := flag.Bool("verify", false, "statically verify the output binary from its serialized bytes (branch targets, jump tables, CFI/LSDA, BAT, symbols); error-severity findings fail the run")
	dynoStats := flag.Bool("dyno-stats", false, "print dyno stats before/after")
	badLayout := flag.Bool("report-bad-layout", false, "report cold blocks between hot blocks and exit")
	printCFG := flag.String("print-cfg", "", "print the CFG of the named function and exit")
	printPipeline := flag.Bool("print-pipeline", false, "print the pass pipeline (Table 1) and exit")
	updateDebug := flag.Bool("update-debug-sections", true, "rewrite .debug_line for moved code")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (after a final GC) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gobolt: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "gobolt: memprofile:", err)
			}
		}()
	}

	opts := core.DefaultOptions()
	var err error
	if opts.ReorderBlocks, err = layout.ParseAlgorithm(*reorderBlocks); err != nil {
		return badFlag("reorder-blocks", err)
	}
	if opts.ReorderFunctions, err = hfsort.ParseAlgorithm(*reorderFuncs); err != nil {
		return badFlag("reorder-functions", err)
	}
	opts.SplitFunctions = *splitFuncs
	opts.SplitAllCold = *splitAllCold
	opts.SplitEH = *splitEH
	opts.ICF = *icf != 0
	opts.ICP = *icp
	opts.InlineSmall = *inlineSmall
	opts.SimplifyROLoads = *simplifyRO
	opts.PLT = *plt
	opts.Peepholes = *peepholes
	opts.FrameOpts = *frameOpts
	opts.ShrinkWrapping = *shrinkWrap
	opts.SCTC = *sctc
	opts.EnableBAT = *enableBAT
	opts.StaleMatching = *staleMatch
	if opts.InferFlow, err = core.ParseInferMode(*inferFlow); err != nil {
		return badFlag("infer-flow", err)
	}
	opts.Lite = *lite
	opts.Jobs = *jobs
	opts.DynoStats = *dynoStats
	opts.UpdateDebugSections = *updateDebug
	var tracer *obsv.Tracer
	if *traceOut != "" {
		tracer = obsv.New()
		opts.Trace = tracer
	}

	if *printPipeline {
		for i, name := range bolt.PipelineNames(bolt.WithOptions(opts)) {
			fmt.Printf("%2d. %s\n", i+1, name)
		}
		return nil
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gobolt [flags] <binary>")
		return errUsage
	}
	input := flag.Arg(0)

	// Ctrl-C cancels the pipeline: the parallel phases stop claiming
	// work and Optimize returns context.Canceled.
	cx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sess, err := bolt.Open(input, bolt.WithOptions(opts))
	if err != nil {
		return err
	}
	if *data != "" {
		if err := sess.LoadProfile(cx, bolt.FdataFile(*data)); err != nil {
			return err
		}
	}

	// Report-only modes stop after analysis.
	if *badLayout || *printCFG != "" {
		if err := sess.Analyze(cx); err != nil {
			return err
		}
		if *badLayout {
			report, err := sess.BadLayoutReport(20)
			if err != nil {
				return err
			}
			fmt.Print(report)
			return nil
		}
		return sess.PrintCFG(os.Stdout, *printCFG)
	}

	rep, err := sess.Optimize(cx)
	if err != nil {
		// No timing or dyno output on failure: a report must never print
		// alongside a swallowed error.
		return err
	}
	// Diagnostics go to stderr: stdout is reserved for requested data
	// output (`-report-json -`, -print-cfg, ...), so piping stays clean.
	if *timePasses {
		rep.WriteTimings(os.Stderr)
	}
	if *dynoStats {
		rep.WriteDynoStats(os.Stderr)
	}
	outPath := *out
	if outPath == "" {
		outPath = input + ".bolt"
	}
	// The gate comes before the write: a rejected image never reaches
	// the output path.
	if *verify {
		res, err := sess.VerifyOutput()
		if err != nil {
			return err
		}
		for _, f := range res.Findings {
			fmt.Fprintf(os.Stderr, "gobolt: verify: %s: %s\n", outPath, f)
		}
		fmt.Fprintf(os.Stderr, "gobolt: verify: %s: %d fragments, %d instructions, %d FDEs, %d BAT ranges: %d errors, %d warnings\n",
			outPath, res.Fragments, res.Instructions, res.FDEs, res.BATRanges, res.Errors, res.Warnings)
		if !res.Ok() {
			return fmt.Errorf("verify: %d error-severity findings, %s not written", res.Errors, outPath)
		}
	}
	if err := sess.WriteFile(outPath); err != nil {
		return err
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, tracer.WriteChromeTrace); err != nil {
			return err
		}
	}
	if *reportJSON == "-" {
		err = rep.WriteJSON(os.Stdout)
	} else if *reportJSON != "" {
		err = writeFile(*reportJSON, rep.WriteJSON)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gobolt: %s -> %s\n", input, outPath)
	fmt.Fprintln(os.Stderr, indent(rep.Summary()))
	return nil
}

// writeFile creates path and fills it through write: the Chrome
// trace-event timeline (Perfetto-loadable) or the run report.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// indent prefixes every line with two spaces (the CLI's result style).
func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
