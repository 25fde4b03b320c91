package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"time"

	"gobolt/internal/bincheck"
	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/passes"
	"gobolt/internal/profile"
	"gobolt/internal/uarch"
)

// layerCounts is the work each layer did in one layered op, as counts.
type layerCounts struct {
	records   int // profile records parsed
	funcs     int // functions discovered
	stats     map[string]int64
	flowAcc   float64
	movedFunc int
	coldBytes uint64
	outBytes  int
}

var passRound = regexp.MustCompile(`-[0-9]+`)

// layeredOp performs one optimize op by driving the layers directly, one
// span per call: the same work bolt.Session does, cut at the layer
// boundaries.
func layeredOp(cx context.Context, tr *tracer, op int, in *inputs) ([]byte, *layerCounts, error) {
	lc := &layerCounts{}
	var out []byte
	err := tr.call("op.layered", op, func() error {
		var f *elfx.File
		if err := tr.call("elfx.read", op, func() (err error) {
			f, err = elfx.Read(in.elf)
			return err
		}); err != nil {
			return err
		}
		var fd *profile.Fdata
		if err := tr.call("profile.parse", op, func() (err error) {
			fd, err = profile.ParseData(cx, in.fdata, jobs)
			return err
		}); err != nil {
			return err
		}
		lc.records = len(fd.Branches) + len(fd.Samples)

		opts := core.DefaultOptions()
		opts.Jobs = jobs
		var bc *core.BinaryContext
		if err := tr.call("core.load", op, func() (err error) {
			bc, err = core.NewContext(cx, f, opts)
			return err
		}); err != nil {
			return err
		}
		lc.funcs = len(bc.Funcs)
		if err := tr.call("core.profile", op, func() error {
			return bc.ApplyProfile(cx, fd)
		}); err != nil {
			return err
		}
		lc.flowAcc = bc.FlowAccAfter

		pm := core.NewPassManager(jobs)
		if err := tr.call("passes", op, func() error {
			for _, p := range passes.BuildPipeline(opts) {
				name := "passes." + passRound.ReplaceAllString(p.Name(), "")
				if err := tr.call(name, op, func() error {
					return pm.Run(cx, bc, []core.Pass{p})
				}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}

		var res *core.RewriteResult
		if err := tr.call("core.emit", op, func() (err error) {
			res, err = bc.Rewrite(cx)
			return err
		}); err != nil {
			return err
		}
		lc.movedFunc, lc.coldBytes = res.MovedFuncs, res.ColdTextSize
		lc.stats = map[string]int64{}
		for k, v := range bc.Stats {
			lc.stats[k] = v
		}
		return tr.call("elfx.write", op, func() (err error) {
			out, err = res.File.Bytes()
			return err
		})
	})
	lc.outBytes = len(out)
	return out, lc, err
}

// layers are the spans whose walls add up to a layered op.
var layers = []string{"elfx.read", "profile.parse", "core.load", "core.profile", "passes", "core.emit", "elfx.write"}

// tracedRun produces the per-layer metrics of one workload: one traced
// set-up, then rounds of {Session op, layered op, serial Session op}
// until the time is up, then verification and the BOLTed binary's
// hardware counters.
func tracedRun(cx context.Context, def workloadDef, seed uint64, seconds float64, tr *tracer) (*result, error) {
	const setupOp = 0
	var in *inputs
	if err := tr.call("setup", setupOp, func() (err error) {
		in, err = build(def, seed, tr, setupOp)
		return err
	}); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var ref *reference
	if err := tr.call("vm.reference", setupOp, func() (err error) {
		ref, err = establish(in)
		return err
	}); err != nil {
		return nil, err
	}
	j := newJudge(in, ref)
	cal := newCalibrator(jobs)
	var buf bytes.Buffer

	_, err := optimize(cx, in, jobs, &buf)
	if !j.op(buf.Bytes(), err) {
		return nil, errors.New("the first op failed, so there is nothing to measure")
	}

	var calibs []float64
	var lc *layerCounts
	layeredOK := true
	op := setupOp
	for start, rounds := time.Now(), 0; rounds < minOps || time.Since(start).Seconds() < seconds; rounds++ {
		if err := cx.Err(); err != nil {
			return nil, err
		}
		// Each op starts from a collected heap, so no op pays for
		// sweeping the garbage of the one before it.
		runtime.GC()
		calibs = append(calibs, cal.run())
		op++
		err := tr.call("op.session", op, func() error {
			_, err := optimize(cx, in, jobs, &buf)
			return err
		})
		j.op(buf.Bytes(), err)

		runtime.GC()
		op++
		out, counts, err := layeredOp(cx, tr, op, in)
		if j.op(out, err) {
			lc = counts
		} else {
			layeredOK = false
		}

		runtime.GC()
		op++
		err = tr.call("op.session-serial", op, func() error {
			_, err := optimize(cx, in, 1, &buf)
			return err
		})
		j.op(buf.Bytes(), err)
	}
	if lc == nil || !layeredOK {
		// A layered run that does not reproduce the Session's bytes
		// measures some other pipeline; its numbers mean nothing.
		return nil, errors.New("the layered run's output differs from the Session's")
	}

	var check *bincheck.Result
	for i := 0; i < minOps; i++ {
		op++
		if err := tr.call("bincheck.check", op, func() (err error) {
			check, err = bincheck.Check(j.firstOut)
			return err
		}); err != nil {
			return nil, err
		}
	}

	ms := func(name string) float64 { secs, _ := tr.byOp(name); return 1e3 * median(secs) }
	allocs := func(name string) float64 { _, a := tr.byOp(name); return median(a) }
	sessionWall, _ := tr.byOp("op.session")
	serialWall, _ := tr.byOp("op.session-serial")
	var layerSum float64
	for _, l := range layers {
		layerSum += ms(l) / 1e3
	}
	refSecs, _ := tr.byOp("vm.reference")
	v := j.verdicts[j.first]
	base, bolted := &ref.base, &v.bolted
	st := func(name string) float64 { return float64(lc.stats[name]) }
	pct := func(b, o uint64) float64 { return 100 * uarch.Reduction(b, o) }

	m := map[string]float64{
		"workload.generate_ms": ms("workload.generate"),
		"cc.compile_ms":        ms("cc.compile"),
		"ld.link_ms":           ms("ld.link"),
		"perf.record_ms":       ms("perf.record"),
		"vm.sim_minstr_s":      float64(base.Instructions) / 1e6 / refSecs[0],

		"session.wall_s":          median(sessionWall),
		"session.calib_s":         median(calibs),
		"session.layer_gap_pct":   100 * (median(sessionWall) - layerSum) / median(sessionWall),
		"session.jobs2_speedup_x": median(serialWall) / median(sessionWall),

		"elfx.read_ms":     ms("elfx.read"),
		"elfx.write_ms":    ms("elfx.write"),
		"elfx.output_kb":   float64(lc.outBytes) / 1024,
		"profile.parse_ms": ms("profile.parse"),
		"profile.records":  float64(lc.records),

		"core.load_ms":           ms("core.load"),
		"core.load_allocs":       allocs("core.load"),
		"core.load_funcs":        float64(lc.funcs),
		"core.load_blocks":       st("load-blocks"),
		"core.load_simple_share": st("load-simple") / float64(lc.funcs),

		"core.profile_ms":             ms("core.profile"),
		"core.profile_allocs":         allocs("core.profile"),
		"core.profile_stale_funcs":    st("profile-stale-funcs"),
		"core.profile_inferred_funcs": st("profile-inferred-funcs"),
		"core.profile_applied_share": (st("profile-edge-count") + st("profile-call-count") +
			st("profile-sample-count") + st("profile-stale-count")) / st("profile-total-count"),
		"core.profile_flow_acc": lc.flowAcc,

		"passes.total_ms":     ms("passes"),
		"passes.total_allocs": allocs("passes"),

		"core.emit_ms":          ms("core.emit"),
		"core.emit_allocs":      allocs("core.emit"),
		"core.emit_moved_funcs": float64(lc.movedFunc),
		"core.emit_cold_kb":     float64(lc.coldBytes) / 1024,

		"bincheck.check_ms":  ms("bincheck.check"),
		"bincheck.fragments": float64(check.Fragments),
		"bincheck.findings":  float64(len(check.Findings)),

		"uarch.baseline_cycles_m":          float64(base.Cycles) / 1e6,
		"uarch.bolted_cycles_m":            float64(bolted.Cycles) / 1e6,
		"uarch.bolted_speedup_pct":         100 * (1/v.cyclesRel - 1),
		"uarch.instr_reduction_pct":        pct(base.Instructions, bolted.Instructions),
		"uarch.baseline_instr_m":           float64(base.Instructions) / 1e6,
		"uarch.l1i_miss_reduction_pct":     pct(base.L1IMiss, bolted.L1IMiss),
		"uarch.baseline_l1i_miss":          float64(base.L1IMiss),
		"uarch.itlb_miss_reduction_pct":    pct(base.ITLBMiss, bolted.ITLBMiss),
		"uarch.baseline_itlb_miss":         float64(base.ITLBMiss),
		"uarch.branch_miss_reduction_pct":  pct(base.BranchMiss, bolted.BranchMiss),
		"uarch.baseline_branch_miss":       float64(base.BranchMiss),
		"uarch.taken_branch_reduction_pct": pct(base.TakenBranches, bolted.TakenBranches),
		"uarch.baseline_taken_branches":    float64(base.TakenBranches),
	}
	for _, p := range passNames {
		m["passes."+p+"_ms"] = ms("passes." + p)
	}
	for _, ps := range passStats {
		m[ps.metric] = st(ps.stat)
	}
	return &result{
		Workload: def.Name, Seed: seed,
		Attempted: j.attempted, Failed: j.failed, Correct: j.failed == 0,
		Ops:     len(sessionWall),
		Metrics: m,
	}, nil
}
