package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gobolt/bolt"
	"gobolt/internal/bincheck"
	"gobolt/internal/profile"
	"gobolt/internal/uarch"
)

// jobs is the worker count of every op: the benchmark host has two CPUs.
// It is stamped into the output next to cpus and GOMAXPROCS.
const jobs = 2

// minOps is the number of timed ops per run, however short -seconds is.
const minOps = 3

// repetition says how often a measurement other than the op loop is
// taken in one run: at least min times, then on until seconds have gone
// by or max is reached. The large workloads stay near min; proxygen-lbr,
// where a set-up takes 0.15 s and one cold start would otherwise decide
// the median of three, gets many more for a few seconds in all. Child
// processes get the longest budget because one child's peak RSS varies by
// ±12 % with the collector's timing.
type repetition struct {
	min, max int
	seconds  float64
}

var (
	setupReps  = repetition{3, 15, 2.5} // setup_s is their median
	rssReps    = repetition{3, 9, 4}    // child processes behind optimize_peak_rss_mb
	verifyReps = repetition{5, 15, 1.5} // bincheck runs behind verify_cost_rel
)

// do calls fn until the repetition is satisfied or fn fails.
func (r repetition) do(fn func() error) error {
	start := time.Now()
	for n := 0; n < r.min || (n < r.max && time.Since(start).Seconds() < r.seconds); n++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// childEnv, when set, names a directory holding in.elf and p.fdata: the
// process runs exactly one op from those files and exits (see peakRSS).
const childEnv = "GOBOLT_BENCH_CHILD"

// optimize is one op — what `gobolt -data p.fdata -o out in` pays, in
// process, from serialized inputs to serialized output. buf is reused
// between ops so the benchmark's own output buffer does not count as the
// optimizer's allocation.
func optimize(cx context.Context, in *inputs, jobs int, buf *bytes.Buffer) (*bolt.Report, error) {
	sess, err := bolt.OpenReader(bytes.NewReader(in.elf), bolt.WithJobs(jobs))
	if err != nil {
		return nil, err
	}
	fd, err := profile.ParseData(cx, in.fdata, jobs)
	if err != nil {
		return nil, err
	}
	if err := sess.LoadProfile(cx, bolt.Fdata(fd)); err != nil {
		return nil, err
	}
	rep, err := sess.Optimize(cx)
	if err != nil {
		return nil, err
	}
	buf.Reset()
	if _, err := sess.WriteTo(buf); err != nil {
		return nil, err
	}
	return rep, nil
}

// childOp is the body of a child process: one op from files, the way the
// gobolt command line runs it.
func childOp(dir string) error {
	cx := context.Background()
	sess, err := bolt.Open(filepath.Join(dir, "in.elf"), bolt.WithJobs(jobs))
	if err != nil {
		return err
	}
	if err := sess.LoadProfile(cx, bolt.FdataFile(filepath.Join(dir, "p.fdata"))); err != nil {
		return err
	}
	if _, err := sess.Optimize(cx); err != nil {
		return err
	}
	if err := sess.WriteFile(filepath.Join(dir, "out.elf")); err != nil {
		return err
	}
	// The parent cannot use the child's ru_maxrss: on exec the kernel
	// folds the forking process's own high-water mark into it. VmHWM
	// belongs to this process's address space alone.
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return err
	}
	_, rest, ok := strings.Cut(string(status), "VmHWM:")
	if !ok {
		return errors.New("no VmHWM in /proc/self/status")
	}
	_, err = fmt.Println(strings.Fields(rest)[0])
	return err
}

// verdict is the judgement of one distinct output image.
type verdict struct {
	ok     bool
	bolted uarch.Metrics // summed over both evaluation inputs
	// cyclesRel is the geometric mean over the evaluation inputs of
	// BOLTed cycles ÷ baseline cycles.
	cyclesRel float64
}

// judge decides whether each op's output is correct. Every output is
// hashed; each distinct hash is verified once (bincheck, then a VM run on
// both evaluation inputs against the un-BOLTed reference).
type judge struct {
	in        *inputs
	ref       *reference
	first     [sha256.Size]byte // hash of the workload's first op
	firstOut  []byte
	verdicts  map[[sha256.Size]byte]*verdict
	attempted int
	failed    int
}

func newJudge(in *inputs, ref *reference) *judge {
	return &judge{in: in, ref: ref, verdicts: map[[sha256.Size]byte]*verdict{}}
}

// op counts one attempted op with its output (or the error that stopped
// it) and reports whether it passed.
func (j *judge) op(out []byte, err error) bool {
	j.attempted++
	if err != nil {
		j.failed++
		logf("op %d failed: %v", j.attempted, err)
		return false
	}
	sum := sha256.Sum256(out)
	if j.attempted == 1 {
		j.first, j.firstOut = sum, bytes.Clone(out)
	}
	v := j.verdicts[sum]
	if v == nil {
		v = j.verify(out)
		j.verdicts[sum] = v
	}
	if sum != j.first {
		logf("op %d: output %x differs from the first op's %x", j.attempted, sum[:6], j.first[:6])
	}
	if !v.ok || sum != j.first {
		j.failed++
		return false
	}
	return true
}

func (j *judge) verify(out []byte) *verdict {
	v := &verdict{ok: true}
	res, err := bincheck.Check(out)
	if err != nil {
		logf("bincheck: %v", err)
		v.ok = false
		return v
	}
	if !res.Ok() {
		logf("bincheck: %d error findings, first finding: %v", res.Errors, res.Findings[0])
		v.ok = false
	}
	var rels []float64
	for i, seed := range j.in.evalSeeds {
		m, result, err := simulate(out, seed)
		if err != nil {
			logf("BOLTed binary on evaluation input %d: %v", i, err)
			v.ok = false
			return v
		}
		if result != j.ref.results[i] {
			logf("BOLTed binary on evaluation input %d: result %d, reference %d", i, result, j.ref.results[i])
			v.ok = false
		}
		addMetrics(&v.bolted, m)
		rels = append(rels, float64(m.Cycles)/float64(j.ref.perEval[i]))
	}
	v.cyclesRel = geomean(rels)
	return v
}

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Ops       int                `json:"timed_ops"`
	Metrics   map[string]float64 `json:"metrics"`
	// TailPct/TailRel are the highest percentile of the calibrated op
	// cost with at least ten samples beyond it, when the run was long
	// enough to have one (0 otherwise).
	TailPct int     `json:"cost_tail_percentile,omitempty"`
	TailRel float64 `json:"cost_tail_rel,omitempty"`
}

// endToEndRun measures the end-to-end metrics of one workload with
// tracing off: a closed loop with one client, one op at a time.
func endToEndRun(cx context.Context, def workloadDef, seed uint64, seconds float64) (*result, error) {
	var in *inputs
	var setups []float64
	if err := setupReps.do(func() error {
		runtime.GC()
		start := time.Now()
		got, err := build(def, seed, nil, 0)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if in == nil {
			in = got
		} else if !bytes.Equal(got.elf, in.elf) || !bytes.Equal(got.fdata, in.fdata) {
			return errors.New("the same seed gave different inputs")
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ref, err := establish(in)
	if err != nil {
		return nil, err
	}
	j := newJudge(in, ref)
	cal := newCalibrator(jobs)
	var buf bytes.Buffer

	// The first op runs serially and untimed: it fills the heap to its
	// working size, and because every later op must hash-equal it, it is
	// also the byte-identity check across worker counts.
	_, err = optimize(cx, in, 1, &buf)
	if !j.op(buf.Bytes(), err) {
		return nil, errors.New("the first op failed, so there is nothing to measure")
	}

	runtime.GC()
	before := cal.run()
	var rels, allocs, allocMB []float64
	var rep *bolt.Report
	for start := time.Now(); len(rels) < minOps || time.Since(start).Seconds() < seconds; {
		if err := cx.Err(); err != nil {
			return nil, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		r, err := optimize(cx, in, jobs, &buf)
		wall := time.Since(t).Seconds()
		runtime.ReadMemStats(&m1)
		runtime.GC()
		after := cal.run()
		if j.op(buf.Bytes(), err) {
			rep = r
			rels = append(rels, wall/((before+after)/2))
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
			allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		}
		before = after
	}
	if rep == nil {
		return nil, errors.New("no timed op passed")
	}

	rss, err := peakRSS(cx, in, j)
	if err != nil {
		return nil, err
	}

	var verifies []float64
	before = cal.run()
	if err := verifyReps.do(func() error {
		t := time.Now()
		if _, err := bincheck.Check(j.firstOut); err != nil {
			return err
		}
		wall := time.Since(t).Seconds()
		runtime.GC()
		after := cal.run()
		verifies = append(verifies, wall/((before+after)/2))
		before = after
		return nil
	}); err != nil {
		return nil, err
	}

	res := &result{
		Workload: def.Name, Seed: seed,
		Attempted: j.attempted, Failed: j.failed, Correct: j.failed == 0,
		Ops: len(rels),
		Metrics: map[string]float64{
			"setup_s":              median(setups),
			"optimize_cost_rel":    median(rels),
			"optimize_allocs_op":   median(allocs),
			"optimize_alloc_mb_op": median(allocMB),
			"optimize_peak_rss_mb": median(rss),
			"verify_cost_rel":      median(verifies),
			"bolted_cycles_rel":    100 * j.verdicts[j.first].cyclesRel,
			"hot_text_kb":          float64(rep.HotTextSize) / 1024,
		},
	}
	if p := tailPercentile(len(rels)); p > 50 {
		res.TailPct, res.TailRel = p, percentile(rels, float64(p))
	}
	return res, nil
}

// peakRSS returns the peak resident set, in MB, of child processes
// (rssReps of them) that each run exactly one op from files — the benchmark
// binary re-executing itself, so the figure is the whole process's peak
// and is not polluted by workload generation in this one.
func peakRSS(cx context.Context, in *inputs, j *judge) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".", ".benchtmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "in.elf"), in.elf, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "p.fdata"), in.fdata, 0o644); err != nil {
		return nil, err
	}
	var rss []float64
	_ = rssReps.do(func() error {
		cmd := exec.CommandContext(cx, exe)
		cmd.Env = append(os.Environ(), childEnv+"="+dir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		var kb float64
		if err == nil {
			kb, err = strconv.ParseFloat(strings.TrimSpace(string(stdout)), 64)
		}
		var out []byte
		if err == nil {
			out, err = os.ReadFile(filepath.Join(dir, "out.elf"))
		}
		if j.op(out, err) {
			rss = append(rss, kb/1024)
		}
		return nil // a failed child is a failed op, and the next still runs
	})
	if len(rss) == 0 {
		return nil, errors.New("no child op passed")
	}
	return rss, nil
}
