// Command benchmark is the repository's benchmark: what the optimizer
// costs and how much faster its output runs, on four workloads, with the
// cost decomposed layer by layer. README.md describes the metrics, the
// workloads and how to read them; BENCHMARK.json describes them to the
// driver. Run it from the repository root:
//
//	go run -C benchmark . -workload clang-lbr -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

// host is stamped into every output so a number is never read without
// the machine it was measured on.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Jobs       int    `json:"jobs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
}

// document is the -out file: everything one invocation measured.
type document struct {
	Host    host      `json:"host"`
	Seconds float64   `json:"seconds"`
	Trace   string    `json:"trace"`
	Results []*result `json:"results"`
}

func main() {
	if dir := os.Getenv(childEnv); dir != "" {
		if err := childOp(dir); err != nil {
			logf("child op: %v", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run() error {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	workloadFlag := flag.String("workload", strings.Join(names, ","), "workloads to run, comma separated")
	seed := flag.Uint64("seed", 0, "input seed: link order, training input and evaluation inputs (0 = the presets as committed)")
	seconds := flag.Float64("seconds", 10, "how long the op loop of one run measures")
	trace := flag.String("trace", "both", "0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced run; both")
	out := flag.String("out", "", "also write everything measured, with the host stamp, to this JSON file")
	traceOut := flag.String("trace-out", "", "write the traced runs' spans to this JSON file")
	repeat := flag.Int("repeat", 1, "run this many sets, set i with seed+i, and report each end-to-end metric's spread next to its bound")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		return fmt.Errorf("-trace must be 0, 1 or both, not %q", *trace)
	}
	var defs []workloadDef
	for _, name := range strings.Split(*workloadFlag, ",") {
		def, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
		}
		defs = append(defs, def)
	}

	cx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	doc := &document{
		Host: host{
			CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Jobs: jobs,
			Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		},
		Seconds: *seconds, Trace: *trace,
	}
	logf("host: %d cpus, GOMAXPROCS %d, jobs %d, %s %s", doc.Host.CPUs, doc.Host.GOMAXPROCS, jobs, doc.Host.Go, doc.Host.OSArch)

	type workloadSpans struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}
	var traces []workloadSpans
	correct := true
	for set := 0; set < *repeat; set++ {
		for _, def := range defs {
			res, spans, err := runWorkload(cx, def, *seed+uint64(set), *seconds, *trace)
			if err != nil {
				return fmt.Errorf("%s: %w", def.Name, err)
			}
			if spans != nil {
				traces = append(traces, workloadSpans{def.Name, res.Seed, spans})
			}
			doc.Results = append(doc.Results, res)
			correct = correct && res.Correct
			printTable(res)
			if err := printLine(res); err != nil {
				return err
			}
		}
	}
	if *repeat > 1 && *trace != "1" {
		printSpreads(doc.Results)
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		if err := writeJSON(*traceOut, traces); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("some ops failed")
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runWorkload runs one workload once: the end-to-end run with tracing
// off, the traced run, or one after the other. It returns the traced
// run's spans, if there was one.
func runWorkload(cx context.Context, def workloadDef, seed uint64, seconds float64, trace string) (*result, []span, error) {
	var res *result
	if trace != "1" {
		r, err := endToEndRun(cx, def, seed, seconds)
		if err != nil {
			return nil, nil, err
		}
		res = r
	}
	if trace == "0" {
		return res, nil, nil
	}
	tr := newTracer()
	r, err := tracedRun(cx, def, seed, seconds, tr)
	if err != nil {
		return nil, nil, err
	}
	if res == nil {
		return r, tr.spans, nil
	}
	res.Attempted += r.Attempted
	res.Failed += r.Failed
	res.Correct = res.Correct && r.Correct
	for k, v := range r.Metrics {
		res.Metrics[k] = v
	}
	return res, tr.spans, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reported lists the metric definitions a result carries, in table order.
func reported(res *result) []metricDef {
	var defs []metricDef
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if _, ok := res.Metrics[d.Name]; ok {
			defs = append(defs, d)
		}
	}
	return defs
}

// printLine writes the result line the driver reads: one JSON object on
// standard output, the last line of a one-workload invocation.
func printLine(res *result) error {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metricValue{}}
	defs := reported(res)
	if len(defs) != len(res.Metrics) {
		return fmt.Errorf("%s: a measured metric is missing from metrics.go", res.Workload)
	}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{res.Metrics[d.Name], d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// printTable writes the human-readable form to standard error.
func printTable(res *result) {
	w := os.Stderr
	fmt.Fprintf(w, "\n%s  seed %d  %d ops attempted, %d failed, %d timed\n", res.Workload, res.Seed, res.Attempted, res.Failed, res.Ops)
	for _, d := range reported(res) {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	if res.TailPct > 0 {
		fmt.Fprintf(w, "  %-36s %14.4f x_calib (p%d of %d ops)\n", "optimize_cost_tail_rel", res.TailRel, res.TailPct, res.Ops)
	}
}

// printSpreads is the self-agreement report of -repeat: per workload and
// end-to-end metric, the interquartile spread of the sets as a share of
// their median, next to the metric's bound.
func printSpreads(results []*result) {
	w := os.Stderr
	fmt.Fprintf(w, "\nspread over sets (interquartile distance / median) against each metric's bound\n")
	for _, def := range workloads {
		values := map[string][]float64{}
		for _, r := range results {
			if r.Workload != def.Name {
				continue
			}
			for _, d := range endToEnd {
				values[d.Name] = append(values[d.Name], r.Metrics[d.Name])
			}
		}
		for _, d := range endToEnd {
			xs := values[d.Name]
			if len(xs) < 2 {
				continue
			}
			s := spread(xs)
			flag := ""
			if s > d.Bound {
				flag = "  EXCEEDS BOUND: unresolved at this bound"
			} else if s > d.Bound/3 {
				flag = "  above a third of the bound"
			}
			fmt.Fprintf(w, "  %-18s %-22s median %12.4f %-8s spread %6.2f%%  bound %5.1f%%%s\n",
				def.Name, d.Name, median(xs), d.Unit, 100*s, 100*d.Bound, flag)
		}
	}
}
