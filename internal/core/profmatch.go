package core

import (
	"cmp"
	"context"
	"slices"

	"gobolt/internal/isa"
	"gobolt/internal/par"
	"gobolt/internal/profile"
	"gobolt/internal/scratch"
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
	var sm *staleMatcher
	if ctx.Opts.StaleMatching && len(fd.Shapes) > 0 {
		sm = &staleMatcher{shapes: fd.Shapes, funcs: make([]staleFunc, len(ctx.Funcs))}
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
// ctx.FlowAccBefore/FlowAccAfter and each function's ProfileAcc.
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
	workers := make([]flowWorker, jobs) // one arena per worker, reused across its functions
	if _, err := par.ForTraced(cx, ctx.Opts.Trace, "profile:infer",
		func(i int) string { return funcs[i].Name },
		len(funcs), jobs, func(w, i int) error {
			fn := funcs[i]
			if !lbr {
				normalizeSamples(fn)
			}
			terms[i].violBefore, terms[i].totalBefore = flowViolation(fn)
			if lbr {
				workers[w].inflow = scratch.Zeroed(workers[w].inflow, len(fn.Blocks))
				repairFlow(fn, workers[w].inflow)
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
			terms[i].violAfter, terms[i].totalAfter = flowViolation(fn)
			fn.ProfileAcc = accFromViolation(terms[i].violAfter, terms[i].totalAfter)
			return nil
		}); err != nil {
		return err
	}
	// Serial fold in function order: the aggregate floats are identical
	// for every worker count.
	var vb, tb, va, ta uint64
	for _, t := range terms {
		vb += t.violBefore
		tb += t.totalBefore
		va += t.violAfter
		ta += t.totalAfter
	}
	ctx.FlowAccBefore = accFromViolation(vb, tb)
	ctx.FlowAccAfter = accFromViolation(va, ta)
	if useMCF {
		ctx.CountStat(StatProfileInferredFuncs, int64(len(funcs)))
	}
	ph.end(len(funcs), jobs)
	return nil
}

// staleMatcher holds the profile's CFG shapes and, per function the
// profile touches, whether that shape still describes this binary's CFG.
// funcs is indexed by BinaryFunction.ordIdx and filled by applyBuckets:
// a nil match = the shape is current, or none was carried, or the
// function is not simple — resolve offsets directly.
type staleMatcher struct {
	shapes map[string]profile.FuncShape
	funcs  []staleFunc
}

// staleFunc is a function whose profiled shape differs from its current
// CFG: the old shape, and for each of its blocks the index in fn.Blocks
// of the block it matched (stale.Matcher.Match; -1 = none).
type staleFunc struct {
	old   profile.FuncShape
	match []int32
}

// of returns fn's stale state, nil when its offsets resolve directly.
func (sm *staleMatcher) of(fn *BinaryFunction) *staleFunc {
	if sm == nil || sm.funcs[fn.ordIdx].match == nil {
		return nil
	}
	return &sm.funcs[fn.ordIdx]
}

// staleScratch is one profile:apply worker's state for stale matching,
// kept across the functions it visits: the current shape is built, and
// matched, in its buffers.
type staleScratch struct {
	cur     shapeScratch
	matcher stale.Matcher
}

// block returns the current block that old shape block i matched, nil
// when i is -1 (stale.BlockAtOff found no old block) or it matched
// nothing in fn.
func (sf *staleFunc) block(fn *BinaryFunction, i int) *BasicBlock {
	if i < 0 {
		return nil
	}
	if j := int(sf.match[i]); j >= 0 && j < len(fn.Blocks) {
		return fn.Blocks[j]
	}
	return nil
}

// compute diagnoses fn against its profiled shape and, when they differ,
// matches the old blocks to the current ones in sc; the match is the one
// allocation. It reads shared state only, so it is safe to call
// concurrently for distinct functions with distinct scratch.
func (sm *staleMatcher) compute(fn *BinaryFunction, sc *staleScratch) staleFunc {
	sh, ok := sm.shapes[fn.Name]
	if !ok || !fn.Simple || len(fn.Blocks) == 0 {
		return staleFunc{}
	}
	cur := sc.cur.shape(fn)
	if stale.ShapesEqual(sh, cur) {
		return staleFunc{}
	}
	return staleFunc{old: sh, match: sc.matcher.Match(sh.Blocks, cur.Blocks)}
}

// funcRecs is one function's shard of profile records, applied by a
// single worker: every CFG mutation it performs (edge counts, block
// counts, fn.Sampled) is local to fn, so distinct buckets never race.
type funcRecs struct {
	fn   *BinaryFunction
	brs  []profile.Branch
	smps []profile.Sample
	n    int // records the classify pass put here
}

// add counts a profile record of weight n under s.
func (c *statShard) add(s Stat, n uint64) { c[s] += int64(n) }

// recShards groups one profile's records by function. The serial
// classify pass puts each record it keeps in its function's bucket
// (add), and fillShards then copies every bucket's records, in record
// order, into the bucket's window of one slab: sharding allocates per
// profile, not per function or record.
type recShards struct {
	at      []int32 // BinaryFunction.ordIdx → one plus the index of its bucket, 0 while it has none
	of      []int32 // record → one plus the index of its bucket, 0 while it has none
	buckets []funcRecs
}

func newRecShards(funcs, recs int) *recShards {
	return &recShards{at: make([]int32, funcs), of: make([]int32, recs)}
}

// bucket opens fn's bucket on first use.
func (s *recShards) bucket(fn *BinaryFunction) int32 {
	if s.at[fn.ordIdx] == 0 {
		s.buckets = append(s.buckets, funcRecs{fn: fn})
		s.at[fn.ordIdx] = int32(len(s.buckets))
	}
	return s.at[fn.ordIdx]
}

// add puts record i in fn's bucket.
func (s *recShards) add(i int, fn *BinaryFunction) {
	b := s.bucket(fn)
	s.of[i] = b
	s.buckets[b-1].n++
}

// fillShards copies recs into the windows of their buckets; window
// names the bucket's list for this kind of record.
func fillShards[R any](s *recShards, recs []R, window func(*funcRecs) *[]R) {
	total := 0
	for i := range s.buckets {
		total += s.buckets[i].n
	}
	slab := make([]R, total)
	for i := range s.buckets {
		b := &s.buckets[i]
		*window(b), slab = slab[:0:b.n], slab[b.n:]
	}
	for i, b := range s.of {
		if b != 0 {
			w := window(&s.buckets[b-1])
			*w = append(*w, recs[i])
		}
	}
}

// applyBuckets is the parallel middle of both profile modes: each
// function's records are applied by one worker (stale matching,
// instruction lookup, edge attach — the expensive part) counting into a
// per-worker shard; a function is in one bucket, so its slot of sm.funcs
// has one writer. The serial join counts the stale functions and folds
// the shards into ctx.Stats.
func (ctx *BinaryContext) applyBuckets(cx context.Context, sm *staleMatcher, buckets []funcRecs) (jobs int, err error) {
	jobs = par.Jobs(ctx.Opts.Jobs, len(buckets))
	shards := make([]statShard, jobs)
	var scratch []staleScratch
	if sm != nil {
		scratch = make([]staleScratch, jobs)
	}
	if _, err := par.ForTraced(cx, ctx.Opts.Trace, "profile:apply",
		func(i int) string { return buckets[i].fn.Name },
		len(buckets), jobs, func(w, i int) error {
			b := &buckets[i]
			var sf *staleFunc
			if sm != nil {
				sm.funcs[b.fn.ordIdx] = sm.compute(b.fn, &scratch[w])
				sf = sm.of(b.fn)
			}
			for _, br := range b.brs {
				applyIntraBranch(b.fn, sf, br, &shards[w])
			}
			for _, s := range b.smps {
				applySample(b.fn, sf, s, &shards[w])
			}
			return nil
		}); err != nil {
		return jobs, err
	}
	if sm != nil {
		for _, b := range buckets {
			if sm.of(b.fn) != nil {
				ctx.CountStat(StatProfileStaleFuncs, 1)
			}
		}
	}
	for i := range shards {
		ctx.mergeStats(&shards[i])
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
	sh := newRecShards(len(ctx.Funcs), len(fd.Branches))
	var calls []callRec
	// A profile's records come sorted by source (Builder.Build sorts
	// them, Write keeps the order), and an intra-function record's
	// target is its source, so a name is looked up only when it differs
	// from the same field of the record before; any order stays correct.
	var fromFn, toFn *BinaryFunction
	for i, br := range fd.Branches {
		c.add(StatProfileTotalCount, br.Count)
		if i == 0 || br.From.Sym != fd.Branches[i-1].From.Sym {
			fromFn = ctx.ByName[br.From.Sym]
		}
		switch {
		case br.To.Sym == br.From.Sym:
			toFn = fromFn
		case i == 0 || br.To.Sym != fd.Branches[i-1].To.Sym:
			toFn = ctx.ByName[br.To.Sym]
		}
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
			sh.add(i, fromFn)
			continue
		}
		if br.To.Off != 0 {
			// Returns land mid-function; they carry no CFG information.
			c.add(StatProfileIgnoredCount, br.Count)
			continue
		}
		calls = append(calls, callRec{fromFn, toFn, br})
	}
	// The call tail below trusts a call site's offset only in a caller
	// whose shape is current, so a caller with no record of its own joins
	// the fan-out with an empty shard — behind every other, where the
	// serial tail used to diagnose it.
	nfuncs := len(sh.buckets)
	if sm != nil {
		for _, cr := range calls {
			if cr.fromFn.Simple {
				sh.bucket(cr.fromFn)
			}
		}
	}
	fillShards(sh, fd.Branches, func(b *funcRecs) *[]profile.Branch { return &b.brs })

	jobs, err := ctx.applyBuckets(cx, sm, sh.buckets)
	if err != nil {
		return nfuncs, jobs, err
	}
	ctx.CallEdges = slices.Grow(ctx.CallEdges, len(calls))
	for _, cr := range calls {
		br := cr.br
		// Call, tail call, or conditional tail call into toFn's entry.
		cr.toFn.ExecCount += br.Count
		cr.toFn.Sampled = true
		ctx.CallEdges = append(ctx.CallEdges, CallEdge{cr.fromFn.Ref(), cr.toFn.Ref(), br.Count})
		c.add(StatProfileCallCount, br.Count)
		if cr.fromFn.Simple {
			cr.fromFn.Sampled = true
			if sm.of(cr.fromFn) == nil {
				fromAddr := cr.fromFn.Addr + br.From.Off
				if _, fi := cr.fromFn.instAt(fromAddr); fi != nil {
					if fi.I.Op == isa.CALLr || fi.I.Op == isa.CALLm {
						ctx.CallTargets = append(ctx.CallTargets, CallTarget{fromAddr, cr.toFn.Ref(), br.Count})
					}
				}
			}
		}
	}
	ctx.CallEdges = sumCounts(ctx.CallEdges, func(a, b CallEdge) int {
		return cmp.Or(cmp.Compare(a.Caller, b.Caller), cmp.Compare(a.Callee, b.Callee))
	}, func(e *CallEdge) *uint64 { return &e.Count })
	ctx.CallTargets = sumCounts(ctx.CallTargets, func(a, b CallTarget) int {
		return cmp.Or(cmp.Compare(a.Site, b.Site), cmp.Compare(a.Callee, b.Callee))
	}, func(t *CallTarget) *uint64 { return &t.Count })

	ctx.mergeStats(&c)
	return nfuncs, jobs, nil
}

// sumCounts sorts s by compare and folds each run of elements that
// compare equal into one carrying the sum of the run's counts, in place.
func sumCounts[T any](s []T, compare func(a, b T) int, count func(*T) *uint64) []T {
	slices.SortFunc(s, compare)
	out := s[:0]
	for i := range s {
		if n := len(out); n > 0 && compare(out[n-1], s[i]) == 0 {
			*count(&out[n-1]) += *count(&s[i])
			continue
		}
		out = append(out, s[i])
	}
	return out
}

// applyIntraBranch applies one same-function branch record. All state it
// mutates belongs to fn; counts accumulate into the worker's shard.
func applyIntraBranch(fn *BinaryFunction, sf *staleFunc, br profile.Branch, c *statShard) {
	// Shape mismatch: this binary is a different build than the profiled
	// one; route every intra-function record through the block matcher
	// (raw offsets would at best miss, at worst hit an unrelated
	// instruction).
	if sf != nil {
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
	tb := fn.blockStarting(toAddr)
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
	nf, nt := sf.block(fn, oldFrom), sf.block(fn, oldTo)
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
	sh := newRecShards(len(ctx.Funcs), len(fd.Samples))
	for i, s := range fd.Samples {
		c.add(StatProfileTotalCount, s.Count)
		fn := ctx.ByName[s.At.Sym]
		if fn == nil || !fn.Simple {
			c.add(StatProfileDropCount, s.Count)
			continue
		}
		sh.add(i, fn)
	}
	fillShards(sh, fd.Samples, func(b *funcRecs) *[]profile.Sample { return &b.smps })
	buckets := sh.buckets

	jobs, err := ctx.applyBuckets(cx, sm, buckets)
	if err != nil {
		return len(buckets), jobs, err
	}
	ctx.mergeStats(&c)
	// Function exec counts are derived after inference (inferStage): the
	// entry block's own sample count understates hot functions whose
	// entry is short and rarely sampled, so the entry *in-flow* decides.
	return len(buckets), jobs, nil
}

// applySample applies one PC sample to fn's blocks (fn-local state only).
func applySample(fn *BinaryFunction, sf *staleFunc, s profile.Sample, c *statShard) {
	if sf != nil {
		if b := sf.block(fn, stale.BlockAtOff(sf.old.Blocks, s.At.Off)); b != nil {
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
// trace shows taken branches contradicting it. in holds one zeroed slot
// per block (BasicBlock.Index) for its in-flow, the sum of its incoming
// edge counts: one sweep over the edges fills it, and every count set
// below updates it.
func repairFlow(fn *BinaryFunction, in []uint64) {
	for _, b := range fn.Blocks {
		for _, e := range b.Succs {
			in[e.To.Index] += e.Count
		}
	}
	set := func(e *Edge, count uint64) {
		in[e.To.Index] += count - e.Count // modular: a lowered count subtracts
		e.Count = count
	}
	for iter := 0; iter < 5; iter++ {
		for _, b := range fn.Blocks {
			cnt := in[b.Index]
			if b.IsEntry() && fn.ExecCount > cnt {
				cnt = fn.ExecCount
			}
			out := uint64(0)
			for _, e := range b.Succs {
				out += e.Count
			}
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
					set(&b.Succs[1], b.ExecCount-taken)
				}
			case len(b.Succs) == 1:
				if b.Succs[0].Count < b.ExecCount {
					set(&b.Succs[0], b.ExecCount)
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
// integer terms behind accFromViolation, kept exact so parallel
// aggregation stays deterministic.
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

// accFromViolation converts violation terms to the [0,1] accuracy scale:
// how consistently the counts satisfy the flow equations (1.0 = every
// block's count equals its outflow; empty = vacuously consistent).
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
