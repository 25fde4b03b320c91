// Command perf2bolt converts raw VM-perf sample data into an fdata
// profile, symbolized against the profiled binary. In this toolchain the
// sampler (vmrun -record) already performs aggregation+symbolization, so
// perf2bolt's job is validation, translation, and re-symbolization:
//
//   - Plain mode parses a profile, checks every location against the
//     binary's symbol table, drops records that no longer resolve, and
//     rewrites the file.
//   - When the binary carries a .bolt.bat section (it was produced by
//     gobolt), the profile was sampled on *optimized* code; perf2bolt
//     translates every location back to input-binary coordinates through
//     the BOLT Address Translation table, so the output feeds a fresh
//     gobolt run on the original binary (§7.3 continuous profiling).
//   - Merge mode (BOLT's merge-fdata) aggregates N profile shards from
//     parallel runs into one deterministic profile.
//
// All three modes are thin adapters over the bolt package's profile
// sources: bolt.SampledOn performs the BAT auto-detection/translation
// and bolt.MergeShards the parallel shard merge.
//
// Usage:
//
//	perf2bolt -p perf.fdata -o clean.fdata binary
//	perf2bolt -merge -o merged.fdata shard1.fdata shard2.fdata ...
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"gobolt/bolt"
)

// errUsage marks a bad invocation; main exits 2 (the flag-package
// convention) after the usage lines were printed, everything else
// exits 1.
var errUsage = errors.New("usage")

func main() {
	if err := run(); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "perf2bolt:", err)
		os.Exit(1)
	}
}

func run() error {
	in := flag.String("p", "", "input profile")
	out := flag.String("o", "", "output profile (default: overwrite input)")
	merge := flag.Bool("merge", false, "merge N profile shards (args are fdata files, no binary)")
	jobs := flag.Int("jobs", 0, "worker threads for parsing merge shards (0 = GOMAXPROCS)")
	translate := flag.Bool("translate", true, "translate through the binary's .bolt.bat section when present")
	flag.Parse()

	cx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *merge {
		return runMerge(cx, flag.Args(), *out, *jobs)
	}
	if flag.NArg() != 1 || *in == "" {
		fmt.Fprintln(os.Stderr, "usage: perf2bolt -p perf.fdata [-o out.fdata] <binary>")
		fmt.Fprintln(os.Stderr, "       perf2bolt -merge -o out.fdata <shard.fdata>...")
		return errUsage
	}
	binary := flag.Arg(0)

	// SampledOn auto-detects whether the binary is a gobolt output: with
	// a .bolt.bat section the profile is rewritten into input-binary
	// coordinates, otherwise stale records are validated and dropped.
	// -translate=false skips even reading the section, so a corrupt
	// table can always be bypassed.
	src := bolt.SampledOn(bolt.FdataFile(*in), binary)
	src.Translate = *translate
	fd, err := src.Load(cx)
	if err != nil {
		return err
	}
	if err := bolt.SaveProfile(fd, outPath(*in, *out)); err != nil {
		return err
	}
	r := src.Result
	if r.Translated {
		fmt.Fprintf(os.Stderr, "perf2bolt: %s: translated via BAT (%d funcs, %d ranges): %d branch records, %d samples kept; counts: %d translated, %d passthrough, %d dropped -> %s\n",
			binary, r.BATFuncs, r.BATRanges, r.Branches, r.Samples,
			r.Stats.TranslatedBranches+r.Stats.TranslatedSamples,
			r.Stats.PassthroughCount, r.Stats.DroppedCount, outPath(*in, *out))
	} else {
		fmt.Fprintf(os.Stderr, "perf2bolt: %d branch records, %d samples kept (%d dropped) -> %s\n",
			r.Branches, r.Samples, r.Dropped, outPath(*in, *out))
	}
	return nil
}

// runMerge implements merge-fdata: shards parse concurrently over the
// shared worker pool, then fold into one deterministic profile.
func runMerge(cx context.Context, paths []string, out string, jobs int) error {
	if len(paths) == 0 || out == "" {
		fmt.Fprintln(os.Stderr, "usage: perf2bolt -merge -o out.fdata <shard.fdata>...")
		return errUsage
	}
	src := bolt.MergeShards(bolt.FdataFiles(paths...)...)
	src.Jobs = jobs
	merged, err := src.Load(cx)
	if err != nil {
		return err
	}
	if err := bolt.SaveProfile(merged, out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perf2bolt: merged %d shards: %d branch records (%d total count), %d samples -> %s\n",
		len(paths), len(merged.Branches), merged.TotalBranchCount(), len(merged.Samples), out)
	return nil
}

func outPath(in, out string) string {
	if out == "" {
		return in
	}
	return out
}
