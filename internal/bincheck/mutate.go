package bincheck

import (
	"encoding/binary"
	"fmt"
	"sort"

	"gobolt/internal/bat"
	"gobolt/internal/cfi"
	"gobolt/internal/elfx"
	"gobolt/internal/isa"
)

// Mutation is one targeted single-site corruption of a serialized
// BOLTed binary, paired with the rule that must catch it. The mutation
// harness (bench's verify experiment and TestVerifierCatchesCorruption)
// applies each to a fresh parse of a known-clean output and asserts the
// checker reports the expected rule — a soundness test for the whole
// rule suite: a verifier that stops looking is caught here, not in
// production.
type Mutation struct {
	// Name identifies the corruption site (what byte lies).
	Name string
	// Rule is the finding the checker must produce.
	Rule string
	// Apply corrupts the parsed image in place. It fails only when the
	// image has no applicable site (e.g. no jump tables to corrupt).
	Apply func(f *elfx.File) error
}

// Mutations returns the corruption matrix: every verification category
// (branch targets, jump tables, CFI, LSDA, BAT, symbols) is represented
// by at least one targeted single-site mutation.
func Mutations() []Mutation {
	return []Mutation{
		{"branch-displacement", "branch-target", mutateControlDisp(false)},
		{"call-displacement", "branch-target", mutateControlDisp(true)},
		{"jump-table-slot", "jt-target", mutateJumpTableSlot},
		{"fde-length", "cfi-bounds", mutateFDELength},
		{"cfi-inst-pc", "cfi-decode", mutateCFIInstPC},
		{"lsda-landing-pad", "lsda-pad", mutateLandingPad},
		{"bat-delta", "bat-translate", mutateBATDelta},
		{"bat-anchor-order", "bat-monotone", mutateBATAnchor},
		{"symbol-size", "sym-overlap", mutateSymbolSize},
		{"entry-point", "sym-entry", mutateEntry},
	}
}

// rediscover rebuilds the fragment model over a parsed image so
// mutations can pick precise sites the same way the checker will look
// at them.
func rediscover(f *elfx.File) *checker {
	c := &checker{f: f, res: &Result{}}
	c.index()
	w := &worker{checker: c}
	for _, fr := range c.frags {
		w.disassemble(fr)
	}
	return c
}

// mutateControlDisp bumps the high displacement byte of a rel32 direct
// branch (or call) in a re-emitted fragment, shifting its target 16MiB
// away — off every instruction boundary the binary has.
func mutateControlDisp(call bool) func(f *elfx.File) error {
	return func(f *elfx.File) error {
		c := rediscover(f)
		for _, fr := range c.frags {
			if !fr.reemitted || fr.broken {
				continue
			}
			for _, s := range fr.sites {
				if call != (s.op == isa.CALL) {
					continue
				}
				if s.size < 5 {
					continue // rel8 form; one byte cannot escape far enough
				}
				fr.code[s.off+uint32(s.size)-1]++ // fr.code aliases the section data
				return nil
			}
		}
		return fmt.Errorf("no rel32 direct %s found", map[bool]string{true: "call", false: "branch"}[call])
	}
}

// mutateJumpTableSlot redirects the first entry of a bounded jump table
// at another function's entry point: a valid instruction boundary, but
// an escape from the owning function's block set.
func mutateJumpTableSlot(f *elfx.File) error {
	c := rediscover(f)
	for _, fr := range c.frags {
		if fr.broken {
			continue
		}
		for _, j := range fr.jumps {
			if !j.ok {
				continue
			}
			var other *fragment
			for _, cand := range c.frags {
				if cand.fn != fr.fn && !cand.broken && cand.reemitted {
					other = cand
					break
				}
			}
			if other == nil {
				continue
			}
			sec := f.SectionFor(j.jt.addr)
			if sec == nil {
				continue
			}
			slot := sec.Data[j.jt.addr-sec.Addr:]
			if j.jt.pic {
				binary.LittleEndian.PutUint32(slot, uint32(int32(int64(other.addr)-int64(j.jt.addr))))
			} else {
				binary.LittleEndian.PutUint64(slot, other.addr)
			}
			return nil
		}
	}
	return fmt.Errorf("no bounded jump table found")
}

// withFrames decodes, edits, and re-encodes the frame section.
func withFrames(f *elfx.File, edit func(fdes []cfi.FDE) error) error {
	sec := f.Section(cfi.FrameSectionName)
	if sec == nil {
		return fmt.Errorf("no %s section", cfi.FrameSectionName)
	}
	fdes, err := cfi.DecodeFrames(sec.Data)
	if err != nil {
		return err
	}
	if err := edit(fdes); err != nil {
		return err
	}
	sec.Data = cfi.EncodeFrames(fdes)
	return nil
}

// mutateFDELength grows one FDE's length field past its fragment.
func mutateFDELength(f *elfx.File) error {
	return withFrames(f, func(fdes []cfi.FDE) error {
		if len(fdes) == 0 {
			return fmt.Errorf("no FDEs")
		}
		fdes[0].Len += 8
		return nil
	})
}

// mutateCFIInstPC rebinds one unwind rule far beyond its FDE.
func mutateCFIInstPC(f *elfx.File) error {
	return withFrames(f, func(fdes []cfi.FDE) error {
		for i := range fdes {
			if n := len(fdes[i].Insts); n > 0 {
				fdes[i].Insts[n-1].PC = 0xFFFFFFF0
				return nil
			}
		}
		return fmt.Errorf("no FDE carries CFI instructions")
	})
}

// mutateLandingPad points one call site's landing pad at address 1 —
// no instruction boundary anywhere. The patch edits the serialized
// LSDA bytes directly (u32 count, then 20-byte call-site records with
// the landing pad at record offset 8).
func mutateLandingPad(f *elfx.File) error {
	sec := f.Section(cfi.FrameSectionName)
	lsdaSec := f.Section(cfi.LSDASectionName)
	if sec == nil || lsdaSec == nil {
		return fmt.Errorf("no exception sections")
	}
	fdes, err := cfi.DecodeFrames(sec.Data)
	if err != nil {
		return err
	}
	for i := range fdes {
		if fdes[i].LSDA == 0 || fdes[i].LSDA < lsdaSec.Addr {
			continue
		}
		off := fdes[i].LSDA - lsdaSec.Addr
		var l cfi.LSDA
		if err := l.Decode(lsdaSec.Data, uint32(off)); err != nil {
			continue
		}
		for cs := range l.CallSites {
			if l.CallSites[cs].LandingPad == 0 {
				continue
			}
			pad := off + 4 + uint64(cs)*20 + 8
			binary.LittleEndian.PutUint64(lsdaSec.Data[pad:], 1)
			return nil
		}
	}
	return fmt.Errorf("no landing pad found")
}

// withBAT decodes, edits, and re-encodes the address-translation table.
func withBAT(f *elfx.File, edit func(t *bat.Table) error) error {
	sec := f.Section(bat.SectionName)
	if sec == nil {
		return fmt.Errorf("no %s section", bat.SectionName)
	}
	t, err := bat.Parse(sec.Data)
	if err != nil {
		return err
	}
	if err := edit(t); err != nil {
		return err
	}
	sec.Data = t.Encode()
	return nil
}

// mutateBATDelta pushes one anchor's input offset past the original
// function body — a translated sample would attribute to a neighbor.
func mutateBATDelta(f *elfx.File) error {
	return withBAT(f, func(t *bat.Table) error {
		for i := range t.Ranges {
			r := &t.Ranges[i]
			if len(r.Entries) == 0 {
				continue
			}
			r.Entries[0].InOff = uint32(t.Funcs[r.FuncIdx].InSize) + 1000
			return nil
		}
		return fmt.Errorf("no BAT anchors")
	})
}

// mutateBATAnchor breaks anchor ordering: the last anchor of a range
// repeats the first's output offset, so binary search over the range is
// no longer well-defined.
func mutateBATAnchor(f *elfx.File) error {
	return withBAT(f, func(t *bat.Table) error {
		for i := range t.Ranges {
			r := &t.Ranges[i]
			if len(r.Entries) < 2 {
				continue
			}
			r.Entries[len(r.Entries)-1].OutOff = r.Entries[0].OutOff
			return nil
		}
		return fmt.Errorf("no BAT range with two anchors")
	})
}

// mutateSymbolSize grows a hot-text function symbol one byte into its
// successor.
func mutateSymbolSize(f *elfx.File) error {
	type fsym struct {
		idx   int
		value uint64
	}
	var syms []fsym
	for i, sym := range f.Symbols {
		if sym.Type == elfx.STTFunc && sym.Size > 0 && sym.Section == ".text" {
			syms = append(syms, fsym{i, sym.Value})
		}
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].value < syms[j].value })
	for i := 0; i+1 < len(syms); i++ {
		if syms[i+1].value > syms[i].value {
			f.Symbols[syms[i].idx].Size = syms[i+1].value - syms[i].value + 1
			return nil
		}
	}
	return fmt.Errorf("fewer than two .text function symbols")
}

// mutateEntry points the ELF entry at unmapped address 1.
func mutateEntry(f *elfx.File) error {
	f.Entry = 1
	return nil
}
