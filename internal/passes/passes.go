// Package passes implements gobolt's optimization pipeline: the sixteen
// transformations of the paper's Table 1, in order. Per-function
// transformations are core.FunctionPass (schedulable over the
// PassManager's worker pool); whole-binary steps (ICP, reorder-functions,
// and the fold of ICF and the splice of inline-small) are core.Pass and
// run as sequential barriers between the parallel regions. A barrier
// costs what it acts on: ICF and inline-small leave their scan of every
// instruction — congruence-key hashing (ICFHash), ruling callers out
// (InlineScan) — to a FunctionPass, and ICP looks only at the functions
// owning a profiled call site. Analyses are on demand: liveness is
// computed for a function once a pass holds a candidate site in it.
package passes

import (
	"gobolt/internal/core"
)

// BuildPipeline returns the Table 1 sequence, honoring the options.
//
//  1. strip-rep-ret      9. reorder-bbs (+ splitting)
//  2. icf (hash ∥, fold) 10. peepholes (second run)
//  3. icp               11. uce
//  4. peepholes         12. fixup-branches (folded into emission)
//  5. inline-small      13. reorder-functions (HFSort)
//  6. simplify-ro-loads 14. sctc
//  7. icf (second run)  15. frame-opts
//  8. plt               16. shrink-wrapping
func BuildPipeline(opts core.Options) []core.Pass {
	opts = opts.Normalized()
	var p []core.Pass
	add := func(enabled bool, pass core.Pass) {
		if enabled {
			p = append(p, pass)
		}
	}
	each := func(enabled bool, fp core.FunctionPass) {
		add(enabled, core.ForEachFunction(fp))
	}
	each(opts.Lite, LiteFilter{})
	each(opts.StripRepRet, StripRepRet{})
	each(opts.ICF, ICFHash{Round: 1})
	add(opts.ICF, ICF{Round: 1})
	add(opts.ICP, ICP{})
	each(opts.Peepholes, Peepholes{Round: 1})
	each(opts.InlineSmall, InlineScan{})
	add(opts.InlineSmall, InlineSmall{})
	each(opts.SimplifyROLoads, SimplifyROLoads{})
	each(opts.ICF, ICFHash{Round: 2})
	add(opts.ICF, ICF{Round: 2})
	each(opts.PLT, PLTPass{})
	each(true, ReorderBBs{})
	each(opts.Peepholes, Peepholes{Round: 2})
	each(opts.UCE, UCE{})
	// fixup-branches: terminator materialization happens during code
	// emission (core/emit.go), exactly once per final layout, and is
	// redone after reorder-bbs as the paper notes.
	add(true, ReorderFunctions{})
	each(opts.SCTC, SCTC{})
	each(opts.FrameOpts, FrameOpts{})
	each(opts.ShrinkWrapping, ShrinkWrapping{})
	return p
}

// LiteFilter implements -lite: functions without profile samples are not
// rewritten at all.
type LiteFilter struct{}

// Name implements core.FunctionPass.
func (LiteFilter) Name() string { return "lite-filter" }

// RunOnFunction implements core.FunctionPass.
func (LiteFilter) RunOnFunction(fc *core.FuncCtx, fn *core.BinaryFunction) error {
	if !fn.Sampled {
		fn.Simple = false
		fn.Reason = "lite mode: no profile samples"
		fc.CountStat(core.StatLiteSkipped, 1)
	}
	return nil
}
