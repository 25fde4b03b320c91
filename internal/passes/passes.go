// Package passes implements gobolt's optimization pipeline: the
// transformations of the paper's Table 1, in order, each run once.
// Per-function transformations are core.FunctionPass (schedulable over the
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

// BuildPipeline returns the Table 1 sequence, honoring the options as
// given (start from core.DefaultOptions(): the zero value runs no pass).
//
//  1. strip-rep-ret        9. reorder-bbs (+ splitting)
//  2. icf (hash ∥, fold)  11. uce
//  3. icp                 12. fixup-branches (folded into emission)
//  4. peepholes           13. reorder-functions (HFSort)
//  5. inline-small        15. frame-opts
//  8. plt                 16. shrink-wrapping
//
// Table 1's second ICF round (7) and second peephole run (10) are not
// run: on no generated preset, LBR or non-LBR profile, LTO build or not,
// does anything between the rounds give them a fold or rewrite to make.
// Nor are simplify-ro-loads (6) and SCTC (14): the compiler emits every
// .rodata reference as a lea, never a load, and no direct tail jump, so
// neither ever had an instruction to rewrite.
func BuildPipeline(opts core.Options) []core.Pass {
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
	each(opts.ICF, ICFHash{})
	add(opts.ICF, ICF{})
	add(opts.ICP, ICP{})
	each(opts.Peepholes, Peepholes{})
	each(opts.InlineSmall, InlineScan{})
	add(opts.InlineSmall, InlineSmall{})
	each(opts.PLT, PLTPass{})
	each(true, ReorderBBs{})
	each(opts.UCE, UCE{})
	// fixup-branches: terminator materialization happens during code
	// emission (core/emit.go), exactly once per final layout, and is
	// redone after reorder-bbs as the paper notes.
	add(true, ReorderFunctions{})
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
