package passes

import (
	"gobolt/internal/core"
	"gobolt/internal/isa"
)

// InlineSmall inlines tiny leaf functions at the binary level (Table 1,
// pass 5). The paper notes this is deliberately limited compared to a
// compiler: the remaining opportunities come from more accurate profile
// data, ICP-promoted calls, and cross-module calls the compiler could not
// see. A callee qualifies when it is one straight-line block of
// register/immediate instructions ending in ret — no stack traffic, no
// calls, no memory-ordering hazards to reason about.
//
// Inlining runs in two pipeline steps, like ICF. A qualifying callee has
// no call, so it is never itself rewritten; what forces a fixed order is
// chains: splicing B into A = `call B; ret` makes A a qualifying callee
// for callers visited after it and not for those before. InlineScan, a
// function pass, therefore only rules callers out — on a property no
// splice changes — and InlineSmall, a sequential barrier, visits the
// rest in address order.

// InlineScan marks the functions InlineSmall need not visit: those with
// no direct call to a single-block function. Splicing never changes a
// function's block count, so the unmarked functions are a superset of the
// callers InlineSmall would rewrite, in whatever order it gets to them.
type InlineScan struct{}

// Name implements core.FunctionPass.
func (InlineScan) Name() string { return "inline-small-scan" }

// RunOnFunction implements core.FunctionPass.
func (InlineScan) RunOnFunction(fc *core.FuncCtx, fn *core.BinaryFunction) error {
	for _, b := range fn.Blocks {
		for i := range b.Insts {
			if callee := inlineCallee(fc.BinaryContext, fn, &b.Insts[i]); callee != nil && len(callee.Blocks) == 1 {
				return nil
			}
		}
	}
	fn.NoInlineSite = true
	return nil
}

// inlineCallee returns the function in calls, with ICF folds resolved,
// when the call is one inlining may replace: direct, outside any try
// range, and not recursive. Otherwise nil.
func inlineCallee(ctx *core.BinaryContext, fn *core.BinaryFunction, in *core.Inst) *core.BinaryFunction {
	if in.I.Op != isa.CALL || in.TargetSym == core.NoFunc || in.LP() != 0 {
		return nil
	}
	callee := ctx.Func(in.TargetSym)
	if callee == fn {
		return nil
	}
	for callee.FoldedInto != nil {
		callee = callee.FoldedInto
	}
	return callee
}

// InlineSmall is the splice step: a sequential barrier over the callers
// InlineScan did not rule out (every caller, when no scan ran).
type InlineSmall struct{}

// MaxInlineInsts bounds the inlined body size.
const MaxInlineInsts = 8

// Name implements core.Pass.
func (InlineSmall) Name() string { return "inline-small" }

// Run implements core.Pass.
func (InlineSmall) Run(ctx *core.BinaryContext) error {
	for _, fn := range ctx.Funcs {
		if fn.NoInlineSite || !fn.Simple || fn.FoldedInto != nil {
			fn.NoInlineSite = false
			continue
		}
		for _, b := range fn.Blocks {
			for i := 0; i < len(b.Insts); i++ {
				in := &b.Insts[i]
				callee := inlineCallee(ctx, fn, in)
				if callee == nil {
					continue
				}
				body, ok := inlinableBody(callee)
				if !ok {
					continue
				}
				// Splice: replace the call with the body.
				spliced := make([]core.Inst, 0, len(b.Insts)+len(body)-1)
				spliced = append(spliced, b.Insts[:i]...)
				// Only context-wide facts cross over: the callee's JT and
				// LP indices mean nothing in the caller (and a qualifying
				// body has neither). The copies keep their origin, so
				// their source line.
				for k := range body {
					bi := &body[k]
					spliced = append(spliced, core.Inst{I: bi.I, Off: bi.Off, CFIIdx: in.CFIIdx})
					spliced[len(spliced)-1].MarkCopied()
				}
				spliced = append(spliced, b.Insts[i+1:]...)
				b.Insts = spliced
				i += len(body) - 1
				ctx.CountStat(core.StatInlineSmall, 1)
			}
		}
	}
	return nil
}

// inlinableBody returns the callee's instructions sans ret if it
// qualifies.
func inlinableBody(callee *core.BinaryFunction) ([]core.Inst, bool) {
	if !callee.Simple || callee.HasLSDA || len(callee.Blocks) != 1 {
		return nil, false
	}
	b := callee.Blocks[0]
	if len(b.Insts) == 0 || len(b.Insts) > MaxInlineInsts+1 {
		return nil, false
	}
	last := b.LastInst()
	if !last.I.IsReturn() {
		return nil, false
	}
	body := b.Insts[:len(b.Insts)-1]
	for i := range body {
		in := &body[i]
		switch in.I.Op {
		case isa.PUSH, isa.POP, isa.CALL, isa.CALLr, isa.CALLm,
			isa.JMP, isa.JCC, isa.JMPr, isa.JMPm, isa.RET, isa.REPZRET,
			isa.HLT, isa.UD2:
			return nil, false
		}
		// Any RSP/RBP traffic disqualifies (stack discipline must be
		// preserved exactly).
		touched := in.I.Uses() | in.I.Defs()
		if touched.Has(isa.RSP) || touched.Has(isa.RBP) {
			return nil, false
		}
	}
	return body, true
}
