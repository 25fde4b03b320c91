package core

import (
	"context"

	"gobolt/internal/isa"
	"gobolt/internal/par"
	"gobolt/internal/profile"
	"gobolt/internal/stale"
)

// Profile-application statistics (the profile-* keys of ctx.Stats) are
// declared in StatDefs (metrics.go) — the single source of truth behind
// the README's stat-key table and the sum-to-total invariant test. The
// count-weighted keys sum exactly to profile-total-count; see the defs
// for each key's meaning.

// ApplyProfile attaches an fdata profile to the CFGs: branch records
// become edge counts, call records become function execution counts and
// indirect-call histograms, and flow repair fills in the fall-through
// counts LBRs cannot observe (paper §5.2). Non-LBR profiles set block
// counts from PC samples — divided by block size, because a sample
// measures time in a block, not executions of it — and reconstruct edges
// with the minimum-cost flow solver of internal/flow, the production
// replacement for the "non-ideal algorithm" whose cost Figure 11
// quantifies (Opts.InferFlow = InferNever restores the proportional
// estimator, and InferAlways also repairs LBR/stale/translated profiles
// after classic flow repair).
//
// When the profile carries CFG shapes (format v2) and Opts.StaleMatching
// is on, records whose offsets no longer resolve against this binary are
// re-anchored by structural block matching instead of being dropped — the
// stale-profile path that keeps week-old production profiles usable
// across releases.
//
// Record matching/attachment fans out per-function over Opts.Jobs
// workers (records are sharded by resolved function first; each
// function's CFG mutations are function-local) and is reported as
// "profile:apply" by -time-passes; the per-function inference stage is
// likewise parallel and reported as "profile:infer". Cancelling cx stops
// both promptly; the only possible error is cx.Err().
func (ctx *BinaryContext) ApplyProfile(cx context.Context, fd *profile.Fdata) error {
	ctx.ProfileLBR = fd.LBR
	if ctx.CallEdges == nil {
		ctx.CallEdges = map[[2]string]uint64{}
	}
	var sm *staleMatcher
	if ctx.Opts.StaleMatching && len(fd.Shapes) > 0 {
		sm = &staleMatcher{ctx: ctx, shapes: fd.Shapes, cache: map[*BinaryFunction]*staleFunc{}}
	}
	ph := ctx.begin("load", "profile:apply")
	var nfuncs, jobs int
	var err error
	if fd.LBR {
		nfuncs, jobs, err = ctx.applyLBR(cx, fd, sm)
	} else {
		nfuncs, jobs, err = ctx.applySamples(cx, fd, sm)
	}
	ph.end(nfuncs, jobs)
	if err != nil {
		return err
	}
	return ctx.inferStage(cx, fd.LBR)
}

// inferStage reconstructs consistent per-function counts from the raw
// record application: classic flow repair and/or minimum-cost-flow
// inference, fanned out over the worker pool (each function's counts
// are function-local state, so the stage parallelizes like a function
// pass). Records the "profile:infer" phase and fills
// ctx.FlowAccBefore/FlowAccAfter/InferredFuncs.
func (ctx *BinaryContext) inferStage(cx context.Context, lbr bool) error {
	var funcs []*BinaryFunction
	for _, fn := range ctx.Funcs {
		if fn.Simple && fn.Sampled && len(fn.Blocks) > 0 {
			funcs = append(funcs, fn)
		}
	}
	useMCF := ctx.Opts.InferFlow == InferAlways ||
		(!lbr && ctx.Opts.InferFlow != InferNever)

	ph := ctx.begin("load", "profile:infer")
	jobs := par.Jobs(ctx.Opts.Jobs, len(funcs))
	// Per-function accuracy terms land in index-addressed slots and fold
	// serially below, so the aggregate floats are bit-identical for
	// every worker count.
	type accTerm struct {
		violBefore, totalBefore uint64
		violAfter, totalAfter   uint64
	}
	terms := make([]accTerm, len(funcs))
	var workers []flowWorker // one solver arena per worker, reused across its functions
	if useMCF {
		workers = make([]flowWorker, jobs)
	}
	if _, err := par.ForTraced(cx, ctx.Opts.Trace, "profile:infer",
		func(i int) string { return funcs[i].Name },
		len(funcs), jobs, func(w, i int) error {
			fn := funcs[i]
			if !lbr {
				normalizeSamples(fn)
			}
			terms[i].violBefore, terms[i].totalBefore = flowViolation(fn)
			if lbr {
				repairFlow(fn)
				if useMCF {
					workers[w].infer(fn, true)
				}
			} else {
				entrySamples := fn.Blocks[0].ExecCount
				if useMCF {
					workers[w].infer(fn, false)
				} else {
					inferEdgesFromBlockCounts(fn)
				}
				// A function's execution count is its entry in-flow, not the
				// entry block's own sample count: a hot function with a
				// short, rarely-sampled entry block must not look cold.
				var entryOut uint64
				for _, e := range fn.Blocks[0].Succs {
					entryOut += e.Count
				}
				fn.ExecCount = max(entrySamples, fn.Blocks[0].ExecCount, entryOut)
			}
			fn.ProfileAcc = flowAccuracy(fn)
			terms[i].violAfter, terms[i].totalAfter = flowViolation(fn)
			return nil
		}); err != nil {
		return err
	}
	// Serial fold: aggregate floats and the per-function flow-accuracy
	// histogram are observed in function order, so both are identical
	// for every worker count.
	var vb, tb, va, ta uint64
	reg := ctx.Metrics
	for i, t := range terms {
		vb += t.violBefore
		tb += t.totalBefore
		va += t.violAfter
		ta += t.totalAfter
		reg.Observe(int(StatFlowAccuracy), funcs[i].Name, funcs[i].ProfileAcc)
	}
	ctx.FlowAccBefore = accFromViolation(vb, tb)
	ctx.FlowAccAfter = accFromViolation(va, ta)
	reg.SetGauge(int(StatFlowAccBefore), ctx.FlowAccBefore)
	reg.SetGauge(int(StatFlowAccAfter), ctx.FlowAccAfter)
	if useMCF {
		ctx.InferredFuncs = len(funcs)
		ctx.CountStat(StatProfileInferredFuncs, int64(len(funcs)))
	}
	ph.end(len(funcs), jobs)
	return nil
}

// staleMatcher lazily diagnoses per function whether the profile's shape
// still describes this binary's CFG, and if not, builds the old-block ->
// current-block map.
type staleMatcher struct {
	ctx    *BinaryContext
	shapes map[string]profile.FuncShape
	cache  map[*BinaryFunction]*staleFunc
}

type staleFunc struct {
	stale    bool
	old      profile.FuncShape
	blockMap map[int]*BasicBlock // old shape block index -> current block
}

// lookup returns the stale state for fn (nil = no shape carried, treat as
// current), computing and caching it on first use. Serial callers only:
// the parallel apply stage uses compute into per-bucket slots and installs
// them into the cache at the join.
func (sm *staleMatcher) lookup(fn *BinaryFunction) *staleFunc {
	if sm == nil {
		return nil
	}
	if sf, ok := sm.cache[fn]; ok {
		return sf
	}
	sf := sm.compute(fn)
	sm.install(fn, sf)
	return sf
}

// install caches fn's stale state, counting each stale function once.
// Serial callers only (lookup and the applyBuckets join), so the quality
// histogram is deterministic across worker counts.
func (sm *staleMatcher) install(fn *BinaryFunction, sf *staleFunc) {
	sm.cache[fn] = sf
	if sf != nil {
		sm.ctx.CountStat(StatProfileStaleFuncs, 1)
		observeStaleQuality(sm.ctx, fn, sf)
	}
}

// observeStaleQuality records the fraction of a stale function's old
// block shapes that matched the current CFG — the per-function match
// quality a profile gate can threshold.
func observeStaleQuality(ctx *BinaryContext, fn *BinaryFunction, sf *staleFunc) {
	if len(sf.old.Blocks) == 0 {
		return
	}
	q := float64(len(sf.blockMap)) / float64(len(sf.old.Blocks))
	ctx.Metrics.Observe(int(StatStaleMatchQuality), fn.Name, q)
}

// compute builds fn's stale state without touching the shared cache or
// stats — read-only on shared state, so it is safe to call concurrently
// for distinct functions.
func (sm *staleMatcher) compute(fn *BinaryFunction) *staleFunc {
	sh, ok := sm.shapes[fn.Name]
	if !ok || !fn.Simple || len(fn.Blocks) == 0 {
		return nil
	}
	cur, _ := computeFuncShape(fn, nil)
	if stale.ShapesEqual(sh, cur) {
		return nil
	}
	sf := &staleFunc{stale: true, old: sh, blockMap: map[int]*BasicBlock{}}
	for oldIdx, newIdx := range stale.Match(sh.Blocks, cur.Blocks) {
		if newIdx >= 0 && newIdx < len(fn.Blocks) {
			sf.blockMap[oldIdx] = fn.Blocks[newIdx]
		}
	}
	return sf
}

// funcRecs is one function's shard of profile records, applied by a
// single worker: every CFG mutation it performs (edge counts, block
// counts, fn.Sampled) is local to fn, so distinct buckets never race.
// The stale state is computed into sf by the owning worker and installed
// into the shared matcher cache at the serial join.
type funcRecs struct {
	fn   *BinaryFunction
	brs  []profile.Branch
	smps []profile.Sample
	sf   *staleFunc
}

// add counts a profile record of weight n under s.
func (c *statShard) add(s Stat, n uint64) { c[s] += int64(n) }

// bucketFor returns the funcRecs shard for fn, creating it on first use.
func bucketFor(fn *BinaryFunction, buckets *[]*funcRecs, idx map[*BinaryFunction]int) *funcRecs {
	k, ok := idx[fn]
	if !ok {
		k = len(*buckets)
		idx[fn] = k
		*buckets = append(*buckets, &funcRecs{fn: fn})
	}
	return (*buckets)[k]
}

// applyBuckets is the parallel middle of both profile modes: each
// function's records are applied by one worker (stale matching,
// instruction lookup, edge attach — the expensive part) counting into a
// per-worker shard. At the serial join the per-bucket stale results move
// into the shared matcher cache and the shards merge into the registry.
func (ctx *BinaryContext) applyBuckets(cx context.Context, sm *staleMatcher, buckets []*funcRecs) (jobs int, err error) {
	jobs = par.Jobs(ctx.Opts.Jobs, len(buckets))
	shards := make([]statShard, jobs)
	if _, err := par.ForTraced(cx, ctx.Opts.Trace, "profile:apply",
		func(i int) string { return buckets[i].fn.Name },
		len(buckets), jobs, func(w, i int) error {
			b := buckets[i]
			if sm != nil {
				b.sf = sm.compute(b.fn)
			}
			for _, br := range b.brs {
				applyIntraBranch(b.fn, b.sf, br, &shards[w])
			}
			for _, s := range b.smps {
				applySample(b.fn, b.sf, s, &shards[w])
			}
			return nil
		}); err != nil {
		return jobs, err
	}
	if sm != nil {
		for _, b := range buckets {
			sm.install(b.fn, b.sf)
		}
	}
	for i := range shards {
		ctx.Metrics.Merge(shards[i][:])
	}
	return jobs, nil
}

// applyLBR attaches branch records in three phases: a serial classify
// pass resolves symbols and shards intra-function records per function,
// a parallel phase applies each function's records (stale matching,
// instruction lookup, edge attach — the expensive part), and a serial
// tail handles inter-function call records, which mutate shared state
// (ExecCount of arbitrary callees, CallEdges, CallTargets). Every update
// is commutative (+= or an idempotent flag), so the final CFG state and
// stats are identical to a record-order serial apply.
func (ctx *BinaryContext) applyLBR(cx context.Context, fd *profile.Fdata, sm *staleMatcher) (int, int, error) {
	type callRec struct {
		fromFn, toFn *BinaryFunction
		br           profile.Branch
	}
	var c statShard // the serial classify pass and call tail count here
	var buckets []*funcRecs
	idx := map[*BinaryFunction]int{}
	var calls []callRec
	for _, br := range fd.Branches {
		c.add(StatProfileTotalCount, br.Count)
		fromFn := ctx.ByName[br.From.Sym]
		toFn := ctx.ByName[br.To.Sym]
		if fromFn == nil || toFn == nil {
			c.add(StatProfileDropCount, br.Count)
			continue
		}
		// Same-function records inside a non-simple function carry no
		// recoverable CFG information — and a loop back-edge to offset 0
		// must not be miscounted as a recursive call (it would inflate
		// ExecCount and invent a self CallEdges entry).
		if fromFn == toFn && !fromFn.Simple {
			fromFn.Sampled = true
			c.add(StatProfileIgnoredCount, br.Count)
			continue
		}
		if fromFn == toFn {
			b := bucketFor(fromFn, &buckets, idx)
			b.brs = append(b.brs, br)
			continue
		}
		calls = append(calls, callRec{fromFn, toFn, br})
	}

	jobs, err := ctx.applyBuckets(cx, sm, buckets)
	if err != nil {
		return len(buckets), jobs, err
	}
	for _, cr := range calls {
		br := cr.br
		if br.To.Off != 0 {
			// Returns land mid-function; they carry no CFG information.
			c.add(StatProfileIgnoredCount, br.Count)
			continue
		}
		// Call, tail call, or conditional tail call into toFn's entry.
		cr.toFn.ExecCount += br.Count
		cr.toFn.Sampled = true
		ctx.CallEdges[[2]string{cr.fromFn.Name, cr.toFn.Name}] += br.Count
		c.add(StatProfileCallCount, br.Count)
		if cr.fromFn.Simple {
			cr.fromFn.Sampled = true
			if sf := sm.lookup(cr.fromFn); sf == nil || !sf.stale {
				fromAddr := cr.fromFn.Addr + br.From.Off
				if _, fi := cr.fromFn.instAt(fromAddr); fi != nil {
					if fi.I.Op == isa.CALLr || fi.I.Op == isa.CALLm {
						m := ctx.CallTargets[fromAddr]
						if m == nil {
							m = map[string]uint64{}
							ctx.CallTargets[fromAddr] = m
						}
						m[cr.toFn.Name] += br.Count
					}
				}
			}
		}
	}

	ctx.Metrics.Merge(c[:])
	return len(buckets), jobs, nil
}

// applyIntraBranch applies one same-function branch record. All state it
// mutates belongs to fn; counts accumulate into the worker's shard.
func applyIntraBranch(fn *BinaryFunction, sf *staleFunc, br profile.Branch, c *statShard) {
	// Shape mismatch: this binary is a different build than the profiled
	// one; route every intra-function record through the block matcher
	// (raw offsets would at best miss, at worst hit an unrelated
	// instruction).
	if sf != nil && sf.stale {
		switch applyStaleBranch(fn, sf, br) {
		case staleApplied:
			c.add(StatProfileStaleCount, br.Count)
		case staleIgnored:
			// Same classification the fresh path would give the record
			// (returns, non-branch sources): no CFG info, but nothing
			// recoverable was lost either.
			c.add(StatProfileIgnoredCount, br.Count)
		case staleDropped:
			c.add(StatProfileStaleDropCount, br.Count)
		}
		return
	}
	fromAddr := fn.Addr + br.From.Off
	toAddr := fn.Addr + br.To.Off
	fb, fi := fn.instAt(fromAddr)
	if fb == nil {
		c.add(StatProfileDropCount, br.Count)
		return
	}
	fn.Sampled = true
	// Return-to-self or call-to-self noise: only branch sources
	// contribute to edges.
	if !fi.I.IsBranch() {
		c.add(StatProfileIgnoredCount, br.Count)
		return
	}
	tb := fn.BlockAt(toAddr)
	if tb == nil {
		c.add(StatProfileDropCount, br.Count)
		return
	}
	for k := range fb.Succs {
		if fb.Succs[k].To == tb {
			fb.Succs[k].Count += br.Count
			fb.Succs[k].Mispreds += br.Mispreds
			c.add(StatProfileEdgeCount, br.Count)
			return
		}
	}
	c.add(StatProfileDropCount, br.Count)
}

// staleOutcome classifies one stale record's fate, mirroring the fresh
// path's three-way split (applied / no-CFG-info / lost).
type staleOutcome int

const (
	staleApplied staleOutcome = iota
	staleIgnored
	staleDropped
)

// applyStaleBranch re-anchors one intra-function branch record through
// the shape match: the source is the old block containing From.Off, the
// target the old block starting at To.Off; the count lands on the
// corresponding current-CFG edge if the old shape confirms the edge
// existed and both blocks matched. Records the *old* CFG itself would
// not have used (mid-block landings = returns-to-self, sources with no
// such edge = calls-to-self and noise) classify as ignored, exactly as
// the fresh path classifies them — they carry no recoverable counts.
func applyStaleBranch(fn *BinaryFunction, sf *staleFunc, br profile.Branch) staleOutcome {
	blocks := sf.old.Blocks
	oldFrom := stale.BlockAtOff(blocks, br.From.Off)
	oldTo := stale.BlockAtOff(blocks, br.To.Off)
	if oldFrom < 0 || oldTo < 0 {
		return staleDropped
	}
	if blocks[oldTo].Off != br.To.Off {
		return staleIgnored // mid-block landing: a return, not a branch
	}
	if !stale.HasSucc(blocks, oldFrom, oldTo) {
		return staleIgnored // no such old edge: non-branch source
	}
	nf, nt := sf.blockMap[oldFrom], sf.blockMap[oldTo]
	if nf == nil || nt == nil {
		return staleDropped
	}
	for k := range nf.Succs {
		if nf.Succs[k].To == nt {
			nf.Succs[k].Count += br.Count
			nf.Succs[k].Mispreds += br.Mispreds
			fn.Sampled = true
			return staleApplied
		}
	}
	return staleDropped
}

// applySamples attaches PC samples with the same classify → parallel
// per-function apply → join structure as applyLBR; samples only ever
// touch their own function's blocks, so there is no serial tail beyond
// stat folding.
func (ctx *BinaryContext) applySamples(cx context.Context, fd *profile.Fdata, sm *staleMatcher) (int, int, error) {
	var c statShard // the serial classify pass counts here
	var buckets []*funcRecs
	idx := map[*BinaryFunction]int{}
	for _, s := range fd.Samples {
		c.add(StatProfileTotalCount, s.Count)
		fn := ctx.ByName[s.At.Sym]
		if fn == nil || !fn.Simple {
			c.add(StatProfileDropCount, s.Count)
			continue
		}
		b := bucketFor(fn, &buckets, idx)
		b.smps = append(b.smps, s)
	}

	jobs, err := ctx.applyBuckets(cx, sm, buckets)
	if err != nil {
		return len(buckets), jobs, err
	}
	ctx.Metrics.Merge(c[:])
	// Function exec counts are derived after inference (inferStage): the
	// entry block's own sample count understates hot functions whose
	// entry is short and rarely sampled, so the entry *in-flow* decides.
	return len(buckets), jobs, nil
}

// applySample applies one PC sample to fn's blocks (fn-local state only).
func applySample(fn *BinaryFunction, sf *staleFunc, s profile.Sample, c *statShard) {
	if sf != nil && sf.stale {
		oldIdx := stale.BlockAtOff(sf.old.Blocks, s.At.Off)
		if b := sf.blockMap[oldIdx]; oldIdx >= 0 && b != nil {
			b.ExecCount += s.Count
			fn.Sampled = true
			c.add(StatProfileStaleCount, s.Count)
		} else {
			c.add(StatProfileStaleDropCount, s.Count)
		}
		return
	}
	b := fn.blockContaining(fn.Addr + s.At.Off)
	if b == nil {
		c.add(StatProfileDropCount, s.Count)
		return
	}
	b.ExecCount += s.Count
	fn.Sampled = true
	c.add(StatProfileSampleCount, s.Count)
}

// isCondTerm reports whether block b ends in a conditional branch with a
// fall-through (Succs = [taken, fallthrough]).
func isCondTerm(b *BasicBlock) bool {
	last := b.LastInst()
	return last != nil && last.I.Op == isa.JCC && len(b.Succs) == 2
}

// repairFlow reconstructs block counts and fall-through edge counts from
// taken-branch counts. Following §5.2, surplus flow is attributed to the
// fall-through path: the static compiler's layout is trusted unless the
// trace shows taken branches contradicting it.
func repairFlow(fn *BinaryFunction) {
	for iter := 0; iter < 5; iter++ {
		for _, b := range fn.Blocks {
			in := uint64(0)
			for _, p := range b.Preds {
				for _, e := range p.Succs {
					if e.To == b {
						in += e.Count
					}
				}
			}
			if b.IsEntry && fn.ExecCount > in {
				in = fn.ExecCount
			}
			out := uint64(0)
			for _, e := range b.Succs {
				out += e.Count
			}
			cnt := in
			if out > cnt {
				cnt = out
			}
			if cnt > b.ExecCount {
				b.ExecCount = cnt
			}
			// Distribute surplus to the fall-through (non-taken) path.
			switch {
			case isCondTerm(b):
				taken := b.Succs[0].Count
				if b.ExecCount > taken {
					b.Succs[1].Count = b.ExecCount - taken
				}
			case len(b.Succs) == 1:
				if b.Succs[0].Count < b.ExecCount {
					b.Succs[0].Count = b.ExecCount
				}
			}
		}
	}
}

// inferEdgesFromBlockCounts is the legacy non-LBR edge estimator
// (Opts.InferFlow = InferNever): block counts come from PC samples;
// each block's outflow is split across successors in proportion to the
// successors' own sample counts. This is the deliberately "non-ideal
// algorithm" of §5.1 — it loses flow to per-successor truncation and
// its +1 smoothing invents counts on never-executed successors — kept
// as the comparison baseline for the minimum-cost-flow solver
// (internal/flow) that now runs by default.
func inferEdgesFromBlockCounts(fn *BinaryFunction) {
	for iter := 0; iter < 3; iter++ {
		for _, b := range fn.Blocks {
			if len(b.Succs) == 0 {
				continue
			}
			total := uint64(0)
			for _, e := range b.Succs {
				total += e.To.ExecCount + 1
			}
			for k := range b.Succs {
				share := float64(b.Succs[k].To.ExecCount+1) / float64(total)
				b.Succs[k].Count = uint64(float64(b.ExecCount) * share)
			}
		}
	}
}

// flowViolation sums, over every executed block with successors, the
// block count and the absolute gap between it and its out-flow — the
// integer terms behind flowAccuracy, kept exact so parallel aggregation
// stays deterministic.
func flowViolation(fn *BinaryFunction) (violation, total uint64) {
	for _, b := range fn.Blocks {
		if len(b.Succs) == 0 || b.ExecCount == 0 {
			continue
		}
		out := uint64(0)
		for _, e := range b.Succs {
			out += e.Count
		}
		diff := int64(b.ExecCount) - int64(out)
		if diff < 0 {
			diff = -diff
		}
		total += b.ExecCount
		violation += uint64(diff)
	}
	return violation, total
}

// accFromViolation converts violation terms to the [0,1] accuracy scale
// (empty = vacuously consistent).
func accFromViolation(violation, total uint64) float64 {
	if total == 0 {
		return 1
	}
	acc := 1 - float64(violation)/float64(total)
	if acc < 0 {
		return 0
	}
	return acc
}

// flowAccuracy measures how consistently the final counts satisfy the
// flow equations (1.0 = every block's inflow equals its outflow).
func flowAccuracy(fn *BinaryFunction) float64 {
	v, t := flowViolation(fn)
	return accFromViolation(v, t)
}
