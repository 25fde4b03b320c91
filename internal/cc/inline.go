package cc

import (
	"gobolt/internal/ir"
)

// funcSize counts MIR ops.
func funcSize(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Ops)
	}
	return n
}

// inlinable reports whether callee's body can be spliced into a caller:
// it must be frameless (no locals, no callee-saved spills) and must not
// itself contain invokes (calls with landing pads) — the splice would have
// to merge exception tables, which real compilers do but we keep out of
// scope. Plain calls, throws, branches, and switches are all fine.
func inlinable(callee *ir.Func) bool {
	if callee == nil || callee.FrameSlots > 0 || len(callee.SavedRegs) > 0 {
		return false
	}
	for _, b := range callee.Blocks {
		for _, op := range b.Ops {
			if op.Kind == ir.OpCall && op.LandingPad >= 0 {
				return false
			}
		}
		switch b.Term.Kind {
		case ir.TermExit, ir.TermTailCall, ir.TermTailIndirect:
			return false
		}
	}
	return true
}

// inlineAll applies the inlining policy over the whole program and
// returns its functions in module order, ready to lower:
//   - tiny callees (<= TinyInlineOps) are inlined whenever visible
//     (same module, or anywhere under LTO);
//   - with PGO, small callees (<= pgoInlineOps) are also inlined at call
//     sites run at least hotCallCount times.
//
// p is never mutated: a function is cloned just before its first splice,
// and from then on byName points at the clone, so a later caller inlines
// the rewritten body. Functions without a splice are returned as they are.
//
// Inlined ops keep the *callee's* source coordinates, so a later PGO build
// of this program sees merged per-line profiles across all inline copies —
// the paper's Figure 2 scenario.
func inlineAll(p *ir.Program, opts Options) []*ir.Func {
	byName := map[string]*ir.Func{}
	sameModule := map[string]*ir.Module{}
	for _, m := range p.Modules {
		for _, f := range m.Funcs {
			byName[f.Name] = f
			sameModule[f.Name] = m
		}
	}

	shouldInline := func(caller *ir.Func, callerMod *ir.Module, op ir.Op) bool {
		callee := byName[op.Callee]
		if callee == nil || callee == caller || !inlinable(callee) {
			return false
		}
		visible := sameModule[op.Callee] == callerMod || opts.LTO
		if !visible {
			return false
		}
		size := funcSize(callee)
		if size <= opts.TinyInlineOps {
			return true
		}
		if opts.PGO != nil && size <= pgoInlineOps {
			cnt := opts.PGO.Call[SrcKey{File: op.File, Line: op.Line}]
			// Merged-at-source caveat applies here too: the count is the
			// sum over all binary call sites sharing this source line.
			return cnt >= hotCallCount
		}
		return false
	}

	var funcs, cloned []*ir.Func
	for _, m := range p.Modules {
		for _, orig := range m.Funcs {
			f := orig
			// Bounded rounds prevent runaway mutual inlining.
			for round := 0; round < 3; round++ {
				var changed bool
				if f, changed = inlineOnePass(f, f != orig, m, byName, shouldInline); !changed {
					break
				}
			}
			if f != orig {
				cloned = append(cloned, f)
			}
			funcs = append(funcs, f)
		}
	}
	// The jumps splice adds carry no source coordinates. They are filled
	// only now, as one whole-program pass after inlining would: a body
	// inlined before its own splices were filled takes the coordinates of
	// the function it lands in.
	for _, f := range cloned {
		f.Finalize()
	}
	return funcs
}

// inlineOnePass splices the first eligible call site of each block and
// reports whether anything changed. Before the first splice into a
// function it does not own yet, it clones it and points byName at the
// clone; it returns the function it spliced into.
func inlineOnePass(f *ir.Func, owned bool, m *ir.Module, byName map[string]*ir.Func,
	shouldInline func(*ir.Func, *ir.Module, ir.Op) bool) (*ir.Func, bool) {

	changed := false
	for bi := 0; bi < len(f.Blocks); bi++ {
		for oi, op := range f.Blocks[bi].Ops {
			if op.Kind != ir.OpCall || !shouldInline(f, m, op) {
				continue
			}
			if !owned {
				f = f.Clone()
				byName[f.Name] = f
				owned = true
			}
			splice(f, bi, oi, byName[op.Callee], op.LandingPad)
			changed = true
			break // block was rewritten; move on
		}
	}
	return f, changed
}

// splice inlines callee at f.Blocks[bi].Ops[oi].
//
// The call block is split: [ops before call | jump to inlined entry] and a
// continuation block [ops after call | original terminator]. Callee blocks
// are appended with indices shifted; callee returns become jumps to the
// continuation. If the call site was an invoke (landing pad lp >= 0),
// calls and throws inside the inlined body inherit lp.
func splice(f *ir.Func, bi, oi int, callee *ir.Func, lp int) {
	call := f.Blocks[bi].Ops[oi]
	base := len(f.Blocks)
	shift := func(idx int) int { return base + idx }

	// Continuation block.
	cont := &ir.Block{
		Index: base + len(callee.Blocks),
		Line:  f.Blocks[bi].Line,
		Ops:   append([]ir.Op(nil), f.Blocks[bi].Ops[oi+1:]...),
		Term:  f.Blocks[bi].Term,
		Cold:  f.Blocks[bi].Cold,
	}

	// Rewrite the call block.
	b := f.Blocks[bi]
	b.Ops = b.Ops[:oi]
	b.Term = ir.Term{Kind: ir.TermJump, Then: shift(0), Line: call.Line}

	// Copy callee blocks.
	for _, cb := range callee.Blocks {
		nb := &ir.Block{
			Index: base + cb.Index,
			Line:  cb.Line, // callee coordinates survive: Figure 2
			Cold:  cb.Cold,
			Ops:   append([]ir.Op(nil), cb.Ops...),
		}
		for i := range nb.Ops {
			if nb.Ops[i].Kind == ir.OpCall && nb.Ops[i].LandingPad < 0 && lp >= 0 {
				nb.Ops[i].LandingPad = lp
			}
		}
		t := cb.Term
		t.Targets = append([]int(nil), cb.Term.Targets...)
		switch t.Kind {
		case ir.TermJump:
			t.Then = shift(t.Then)
		case ir.TermBranch:
			t.Then, t.Else = shift(t.Then), shift(t.Else)
		case ir.TermSwitch:
			for i := range t.Targets {
				t.Targets[i] = shift(t.Targets[i])
			}
		case ir.TermReturn:
			t = ir.Term{Kind: ir.TermJump, Then: cont.Index, Line: t.Line}
		case ir.TermThrow:
			if lp >= 0 {
				t.LandingPad = lp
			}
		}
		nb.Term = t
		f.Blocks = append(f.Blocks, nb)
	}
	f.Blocks = append(f.Blocks, cont)
}
