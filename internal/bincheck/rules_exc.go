package bincheck

import (
	"math"

	"gobolt/internal/cfi"
	"gobolt/internal/elfx"
	"gobolt/internal/isa"
)

// bindFrames is the serial front of the CFI rules (FDE ranges match
// fragments, every re-emitted fragment is covered; behind it per FDE:
// programs bind on boundaries and replay, LSDA call sites stay inside
// with live landing pads in the same function; per fragment: split edges
// carry consistent CFA state). It takes the frame section as decoded
// beside disassembly and leaves each fragment's first FDE on it;
// owners[i] is the fragment fdes[i] starts at, nil when it starts at none.
func (w *worker) bindFrames(sec *elfx.Section, fdes []cfi.FDE, err error) (owners []*fragment) {
	if sec == nil {
		for _, fr := range w.frags {
			if fr.reemitted {
				w.errorf("cfi-cover", fr.name, fr.addr,
					"no %s section, but fragment %s was re-emitted", cfi.FrameSectionName, fr.name)
				return nil // one finding is enough; every fragment is equally uncovered
			}
		}
		return nil
	}
	if err != nil {
		w.errorf("cfi-bounds", "", 0, "%s does not decode: %v", cfi.FrameSectionName, err)
		return nil
	}
	w.res.FDEs = len(fdes)

	owners = make([]*fragment, len(fdes))
	for i := range fdes {
		fde := &fdes[i]
		fr := w.fragStarting(fde.Start)
		if fr == nil {
			w.errorf("cfi-bounds", "", fde.Start,
				"FDE [%#x,%#x) starts at no known fragment", fde.Start, fde.Start+uint64(fde.Len))
			continue
		}
		owners[i] = fr
		fr.nfde++
		if fr.fde == nil {
			fr.fde = fde
		}
		if fr.reemitted && uint64(fde.Len) != fr.size {
			w.errorf("cfi-bounds", fr.name, fde.Start,
				"FDE length %#x != re-emitted fragment size %#x", fde.Len, fr.size)
		} else if uint64(fde.Len) > fr.size {
			w.errorf("cfi-bounds", fr.name, fde.Start,
				"FDE length %#x overruns fragment size %#x", fde.Len, fr.size)
		}
	}

	for _, fr := range w.frags {
		if !fr.reemitted {
			continue
		}
		switch fr.nfde {
		case 0:
			w.errorf("cfi-cover", fr.name, fr.addr, "re-emitted fragment has no FDE")
		case 1:
		default:
			w.errorf("cfi-cover", fr.name, fr.addr,
				"re-emitted fragment has %d FDEs", fr.nfde)
		}
	}
	return owners
}

// checkFDE runs the per-FDE rules on an FDE of fragment fr: every
// unwind rule binds at an instruction boundary inside the FDE, the full
// replay succeeds (no restore_state without a matching remember_state),
// and the exception table hanging off it holds up. A rule bound at
// exactly the FDE's end covers no address and is inert: internal/cc
// re-asserts the frame state after every ret, the last one included.
func (w *worker) checkFDE(fr *fragment, fde *cfi.FDE) {
	if fr == nil {
		return
	}
	for _, pi := range fde.Insts {
		if pi.PC == fde.Len {
			continue
		}
		if pi.PC > fde.Len {
			w.errorf("cfi-decode", fr.name, fde.Start+uint64(pi.PC),
				"CFI %s bound at offset %#x beyond FDE length %#x", pi.Inst.Kind, pi.PC, fde.Len)
			continue
		}
		if !fr.broken && !fr.isBoundary(pi.PC) {
			w.errorf("cfi-decode", fr.name, fde.Start+uint64(pi.PC),
				"CFI %s bound mid-instruction at offset %#x", pi.Inst.Kind, pi.PC)
		}
	}
	if _, err := fde.Evaluate(math.MaxUint32); err != nil {
		w.errorf("cfi-decode", fr.name, fde.Start, "CFI program does not replay: %v", err)
	}
	if fde.LSDA != 0 {
		w.checkLSDA(fr, fde)
	}
}

// checkLSDA validates the exception call-site table hanging off an FDE.
func (w *worker) checkLSDA(fr *fragment, fde *cfi.FDE) {
	sec := w.f.Section(cfi.LSDASectionName)
	if sec == nil || fde.LSDA < sec.Addr {
		w.errorf("lsda-bounds", fr.name, fde.Start,
			"FDE points at LSDA %#x outside %s", fde.LSDA, cfi.LSDASectionName)
		return
	}
	l, err := cfi.DecodeLSDA(sec.Data, uint32(fde.LSDA-sec.Addr))
	if err != nil {
		w.errorf("lsda-bounds", fr.name, fde.Start, "LSDA at %#x does not decode: %v", fde.LSDA, err)
		return
	}
	for i, cs := range l.CallSites {
		if uint64(cs.Start)+uint64(cs.Len) > uint64(fde.Len) {
			w.errorf("lsda-bounds", fr.name, fde.Start+uint64(cs.Start),
				"call site %d [%#x,+%#x) overruns the FDE (length %#x)", i, cs.Start, cs.Len, fde.Len)
			continue
		}
		if !fr.broken && !fr.isBoundary(cs.Start) {
			w.errorf("lsda-bounds", fr.name, fde.Start+uint64(cs.Start),
				"call site %d starts mid-instruction at offset %#x", i, cs.Start)
		}
		if cs.LandingPad == 0 {
			continue
		}
		lp, ok := w.validTarget(cs.LandingPad)
		if !ok {
			w.errorf("lsda-pad", fr.name, cs.LandingPad,
				"call site %d landing pad %#x is not an instruction boundary", i, cs.LandingPad)
			continue
		}
		if lp.fn != fr.fn {
			w.errorf("lsda-pad", fr.name, cs.LandingPad,
				"call site %d landing pad %#x lands in %s, not in %s", i, cs.LandingPad, lp.name, fr.fn)
		}
	}
}

// checkSplitState verifies CFA consistency across the hot/cold split
// edges leaving src: a branch between the two fragments of one function
// does not change the CFA, so the unwind state at the target must equal
// the state at the branch site — unless the target offset carries its
// own explicit CFI rules (the spliced state diff the emitter writes at a
// fragment entry, or an original rule that happens to bind there).
func (w *worker) checkSplitState(src *fragment) {
	if !src.split || src.fde == nil || src.broken || !src.reemitted {
		return
	}
	for i := range src.sites {
		s := &src.sites[i]
		if s.op == isa.CALL {
			continue
		}
		dst := w.at(s.target)
		if dst == nil || dst == src || dst.fn != src.fn || dst.broken {
			continue
		}
		if dst.fde == nil {
			continue // cfi-cover already reported
		}
		dstOff := uint32(s.target - dst.addr)
		if hasExplicitRule(dst.fde, dstOff) {
			continue
		}
		ss, err1 := src.fde.Evaluate(s.off)
		ds, err2 := dst.fde.Evaluate(dstOff)
		if err1 != nil || err2 != nil {
			continue // cfi-decode already reported
		}
		if ss.CfaReg != ds.CfaReg || ss.CfaOff != ds.CfaOff {
			w.errorf("cfi-split", src.name, src.addr+uint64(s.off),
				"split edge %#x -> %#x changes CFA (r%d%+d -> r%d%+d) with no CFI rule at the target",
				src.addr+uint64(s.off), s.target,
				ss.CfaReg, ss.CfaOff, ds.CfaReg, ds.CfaOff)
		}
	}
}

// hasExplicitRule reports whether the FDE binds any CFI instruction at
// exactly off.
func hasExplicitRule(fde *cfi.FDE, off uint32) bool {
	for _, pi := range fde.Insts {
		if pi.PC == off {
			return true
		}
	}
	return false
}
