package bincheck

import (
	"gobolt/internal/bat"
	"gobolt/internal/elfx"
)

// bindBAT is the serial front of the BAT rules: every range of the
// address-translation table, as parsed beside disassembly, matches a
// known fragment, and every re-emitted fragment is mapped exactly once
// (the continuous-profiling loop of §7.3 trusts exactly these
// properties, and the anchor properties checkAnchors holds each range
// to). owners[i] is the fragment t.Ranges[i] describes, nil when the
// range names none or disagrees with it about where it lies.
func (w *worker) bindBAT(sec *elfx.Section, t *bat.Table, err error) (owners []*fragment) {
	if sec == nil {
		return nil // BAT emission is optional
	}
	if err != nil {
		w.errorf("bat-parse", "", 0, "%s does not decode: %v", bat.SectionName, err)
		return nil
	}
	w.res.BATRanges = len(t.Ranges)

	owners = make([]*fragment, len(t.Ranges))
	for i := range t.Ranges {
		r := &t.Ranges[i]
		fi := t.Funcs[r.FuncIdx]
		name := fi.Name
		if r.Cold {
			name += ColdSuffix
		}
		fr := w.byName[name]
		if fr == nil {
			w.errorf("bat-range", fi.Name, r.Start,
				"range [%#x,+%#x) maps unknown fragment %q", r.Start, r.Size, name)
			continue
		}
		fr.nbat++
		if fr.addr != r.Start || fr.size != uint64(r.Size) {
			w.errorf("bat-range", fi.Name, r.Start,
				"range [%#x,+%#x) does not match fragment %s [%#x,+%#x)",
				r.Start, r.Size, fr.name, fr.addr, fr.size)
			continue
		}
		owners[i] = fr
	}

	// Every fragment the rewriter emitted must be mapped, or samples on
	// it silently vanish from the next profiling round.
	for _, fr := range w.frags {
		if !fr.reemitted {
			continue
		}
		switch fr.nbat {
		case 0:
			w.errorf("bat-cover", fr.name, fr.addr, "re-emitted fragment has no BAT range")
		case 1:
		default:
			w.errorf("bat-range", fr.name, fr.addr,
				"re-emitted fragment has %d BAT ranges", fr.nbat)
		}
	}
	return owners
}

// checkAnchors runs the per-range rules over r, which maps fragment fr:
// anchors are strictly monotone instruction boundaries, a mapped
// fragment stays translatable, and every translated input offset falls
// inside the original function body.
func (w *worker) checkAnchors(fr *fragment, t *bat.Table, r *bat.Range) {
	if fr == nil {
		return
	}
	fi := &t.Funcs[r.FuncIdx]
	if len(r.Entries) == 0 && r.Size > 0 {
		w.warnf("bat-cover", fi.Name, r.Start,
			"range [%#x,+%#x) has no anchors; samples there cannot translate", r.Start, r.Size)
	}
	prev := int64(-1)
	for _, e := range r.Entries {
		addr := r.Start + uint64(e.OutOff)
		if int64(e.OutOff) <= prev {
			w.errorf("bat-monotone", fi.Name, addr,
				"anchor at +%#x is not strictly after the previous anchor (+%#x)", e.OutOff, prev)
		}
		prev = int64(e.OutOff)
		if e.OutOff >= r.Size {
			w.errorf("bat-monotone", fi.Name, addr,
				"anchor at +%#x is outside the range (size %#x)", e.OutOff, r.Size)
			continue
		}
		if !fr.broken && !fr.isBoundary(e.OutOff) {
			w.errorf("bat-monotone", fi.Name, addr,
				"anchor at +%#x is not an instruction boundary", e.OutOff)
		}
		if uint64(e.InOff) >= fi.InSize {
			w.errorf("bat-translate", fi.Name, addr,
				"anchor at +%#x translates to input offset %#x outside the original body (size %#x)",
				e.OutOff, e.InOff, fi.InSize)
		}
	}
}
