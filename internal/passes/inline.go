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
// InlineSmall is a whole-binary pass (a sequential barrier under the
// PassManager): it reads callee bodies while rewriting callers, so
// running it per-function would race with concurrent callee mutation.
type InlineSmall struct{}

// MaxInlineInsts bounds the inlined body size.
const MaxInlineInsts = 8

// Name implements core.Pass.
func (InlineSmall) Name() string { return "inline-small" }

// Run implements core.Pass.
func (InlineSmall) Run(ctx *core.BinaryContext) error {
	for _, fn := range ctx.SimpleFuncs() {
		for _, b := range fn.Blocks {
			for i := 0; i < len(b.Insts); i++ {
				in := &b.Insts[i]
				if in.I.Op != isa.CALL || in.TargetSym == core.NoFunc || in.LP != 0 {
					continue
				}
				callee := ctx.Func(in.TargetSym)
				if callee == fn {
					continue
				}
				for callee.FoldedInto != nil {
					callee = callee.FoldedInto
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
				// body has neither).
				for k := range body {
					bi := &body[k]
					spliced = append(spliced, core.Inst{I: bi.I, CFIIdx: in.CFIIdx, Src: bi.Src, MemTarget: bi.MemTarget})
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
