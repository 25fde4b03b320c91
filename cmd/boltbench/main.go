// Command boltbench regenerates the paper's tables and figures: the rows
// of bench.Experiments, which share one bench.Lab per run, so each
// workload build is made, profiled and measured once. Optimizer cost is
// measured by `go run -C benchmark .` (see benchmark/README.md), not here.
//
// Usage:
//
//	boltbench -experiment fig5 [-scale 0.25]
//	boltbench -experiment all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gobolt/bolt"
	"gobolt/internal/bench"
	"gobolt/internal/obsv"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "boltbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var names []string
	byName := make(map[string]bench.Experiment)
	for _, e := range bench.Experiments {
		names = append(names, e.Name)
		byName[e.Name] = e
	}
	exp := flag.String("experiment", "all",
		"experiment(s) to run: "+strings.Join(names, ", ")+" (comma separated or 'all')")
	scale := flag.Float64("scale", 1.0, "workload scale factor (iterations multiplier)")
	heatOut := flag.String("heat-out", "", "write Figure 9 heat maps (CSV + text) with this path prefix")
	validateTrace := flag.String("validate-trace", "", "validate a Chrome trace-event JSON file (gobolt -trace-out) and exit")
	validateReport := flag.String("validate-report", "", "validate a machine-readable run report (gobolt -report-json) and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (after a final GC) to this file")
	flag.Parse()

	stopProfiles, err := obsv.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "boltbench:", err)
		}
	}()

	// Standalone validation mode: check artifacts from a gobolt run
	// against the obsv schemas and exit without running experiments.
	if *validateTrace != "" || *validateReport != "" {
		if *validateTrace != "" {
			data, err := os.ReadFile(*validateTrace)
			if err != nil {
				return err
			}
			if err := obsv.ValidateChromeTrace(data); err != nil {
				return fmt.Errorf("%s: %w", *validateTrace, err)
			}
			fmt.Printf("boltbench: %s: valid Chrome trace\n", *validateTrace)
		}
		if *validateReport != "" {
			data, err := os.ReadFile(*validateReport)
			if err != nil {
				return err
			}
			if err := bolt.ValidateRunReport(data); err != nil {
				return fmt.Errorf("%s: %w", *validateReport, err)
			}
			fmt.Printf("boltbench: %s: valid run report (schema v%d)\n", *validateReport, bolt.ReportSchemaVersion)
		}
		return nil
	}

	list := names
	if *exp != "all" {
		list = strings.Split(*exp, ",")
	}
	lab := bench.NewLab(bench.Scale(*scale))
	for _, name := range list {
		name = strings.TrimSpace(name)
		e, ok := byName[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		start := time.Now()
		res, err := e.Run(lab)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if *heatOut != "" {
			for _, b := range res.Blobs {
				if err := os.WriteFile(*heatOut+"."+b.Name, []byte(b.Data), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, "heat-out:", err)
					break
				}
			}
		}
		fmt.Println(res.Report)
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
