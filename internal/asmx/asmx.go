// Package asmx is the function-body assembler shared by the mini compiler
// and by gobolt's code emitter. It lays out a stream of instructions,
// binds labels, performs rel8/rel32 branch relaxation to a fixpoint
// (starting short and widening — the 2-byte vs 6-byte Jcc trade-off from
// paper §3.1), inserts alignment NOPs, and records relocations for
// references the linker must patch.
package asmx

import (
	"fmt"

	"gobolt/internal/isa"
	"gobolt/internal/obj"
)

// Label identifies a position in the assembled stream.
type Label int

// None marks "no label".
const None Label = -1

type itemKind uint8

const (
	kindInst itemKind = iota
	kindBranch
	kindReloc
	kindAlign
)

type item struct {
	kind   itemKind
	inst   isa.Inst
	target Label // kindBranch
	// kindReloc
	relType uint32
	sym     string
	symID   obj.SymID
	addend  int64
	// kindAlign
	align int

	long bool // widened branch (relaxation state)
	off  uint32
	size uint32
}

// Assembler accumulates instructions and produces machine code.
type Assembler struct {
	items     []item
	labels    []int    // label -> item index (position *before* that item)
	labelOffs []uint32 // Finish's reusable label-offset scratch
}

// New returns an empty assembler.
func New() *Assembler { return &Assembler{} }

// Reset clears the assembler for reuse, keeping its backing storage.
// Hot callers (gobolt's emitter) hold one assembler per worker and Reset
// it between functions, so steady-state assembly allocates only the
// returned code and relocation slices.
func (a *Assembler) Reset() {
	a.items = a.items[:0]
	a.labels = a.labels[:0]
}

// NewLabel allocates an unbound label.
func (a *Assembler) NewLabel() Label {
	a.labels = append(a.labels, -1)
	return Label(len(a.labels) - 1)
}

// Bind attaches l to the current position.
func (a *Assembler) Bind(l Label) {
	a.labels[l] = len(a.items)
}

// Emit appends a plain instruction.
func (a *Assembler) Emit(i isa.Inst) {
	a.items = append(a.items, item{kind: kindInst, inst: i})
}

// EmitBranch appends a direct branch (JMP/JCC) to a label.
func (a *Assembler) EmitBranch(i isa.Inst, target Label) {
	a.items = append(a.items, item{kind: kindBranch, inst: i, target: target})
}

// EmitReloc appends an instruction whose trailing 4 bytes are a
// linker-patched field (call rel32, RIP-relative disp32). The relocation
// is recorded at (instruction end - 4) with the given type/sym/addend.
func (a *Assembler) EmitReloc(i isa.Inst, relType uint32, sym string, addend int64) {
	a.items = append(a.items, item{kind: kindReloc, inst: i, relType: relType, sym: sym, addend: addend})
}

// EmitRelocID is EmitReloc with a packed numeric symbol instead of a
// name (obj.Reloc.SymID); gobolt's emitter uses it to keep the hot
// emission path free of per-relocation string building.
func (a *Assembler) EmitRelocID(i isa.Inst, relType uint32, symID obj.SymID, addend int64) {
	a.items = append(a.items, item{kind: kindReloc, inst: i, relType: relType, symID: symID, addend: addend})
}

// Align pads with NOPs to the given power-of-two boundary.
func (a *Assembler) Align(n int) {
	a.items = append(a.items, item{kind: kindAlign, align: n})
}

// Result is the assembled function body. Code and Relocs are freshly
// allocated at their exact final size and safe to retain; LabelOffs
// aliases assembler-owned scratch and is only valid until the next
// Finish or Reset on the same assembler.
type Result struct {
	Code      []byte
	LabelOffs []uint32 // label -> byte offset within Code
	Relocs    []obj.Reloc
}

// Finish lays out the stream at the given base address and returns the
// encoded bytes. Relaxation: every branch starts in its rel8 form; any
// branch whose displacement does not fit is widened to rel32 and layout is
// recomputed, until a fixpoint (widening is monotone, so this terminates).
func (a *Assembler) Finish(base uint64) (*Result, error) {
	if cap(a.labelOffs) < len(a.labels) {
		a.labelOffs = make([]uint32, len(a.labels))
	}
	labelOffs := a.labelOffs[:len(a.labels)]
	clear(labelOffs)
	if len(a.items) == 0 {
		return &Result{LabelOffs: labelOffs}, nil
	}

	computeLayout := func() {
		off := uint32(0)
		for idx := range a.items {
			it := &a.items[idx]
			it.off = off
			switch it.kind {
			case kindInst, kindReloc:
				// Non-label-relative instructions always use their long
				// form (fixed size regardless of final addresses).
				it.size = uint32(isa.InstLen(&it.inst, true))
			case kindBranch:
				it.size = uint32(isa.InstLen(&it.inst, it.long))
			case kindAlign:
				pad := uint32(0)
				if it.align > 1 {
					rem := (uint64(off) + base) % uint64(it.align)
					if rem != 0 {
						pad = uint32(uint64(it.align) - rem)
					}
				}
				it.size = pad
			}
			off += it.size
		}
		for l, itemIdx := range a.labels {
			if itemIdx < 0 {
				labelOffs[l] = 0
				continue
			}
			if itemIdx >= len(a.items) {
				// Bound at the very end.
				last := a.items[len(a.items)-1]
				labelOffs[l] = last.off + last.size
			} else {
				labelOffs[l] = a.items[itemIdx].off
			}
		}
	}

	// Relaxation loop.
	for iter := 0; ; iter++ {
		if iter > len(a.items)+8 {
			return nil, fmt.Errorf("asmx: relaxation did not converge")
		}
		computeLayout()
		widened := false
		for idx := range a.items {
			it := &a.items[idx]
			if it.kind != kindBranch || it.long {
				continue
			}
			if a.labels[it.target] < 0 {
				return nil, fmt.Errorf("asmx: branch to unbound label %d", it.target)
			}
			targetOff := int64(labelOffs[it.target])
			rel := targetOff - int64(it.off) - int64(it.size)
			if rel < -128 || rel > 127 {
				it.long = true
				widened = true
			}
		}
		if !widened {
			break
		}
	}

	// Encode into exactly-sized buffers: total code length is fixed by
	// the converged layout, and the relocation count by the item stream.
	res := &Result{LabelOffs: labelOffs}
	last := &a.items[len(a.items)-1]
	code := make([]byte, 0, last.off+last.size)
	nRel := 0
	for idx := range a.items {
		if a.items[idx].kind == kindReloc {
			nRel++
		}
	}
	if nRel > 0 {
		res.Relocs = make([]obj.Reloc, 0, nRel)
	}
	for idx := range a.items {
		it := &a.items[idx]
		if uint32(len(code)) != it.off {
			return nil, fmt.Errorf("asmx: layout drift at item %d: %d != %d", idx, len(code), it.off)
		}
		pc := base + uint64(it.off)
		var err error
		switch it.kind {
		case kindInst:
			code, err = isa.AppendInst(code, &it.inst, pc, true)
		case kindBranch:
			inst := it.inst
			inst.TargetAddr = base + uint64(labelOffs[it.target])
			code, err = isa.AppendInst(code, &inst, pc, it.long)
		case kindReloc:
			code, err = isa.AppendInst(code, &it.inst, pc, true)
			if err == nil {
				res.Relocs = append(res.Relocs, obj.Reloc{
					Off:    uint32(len(code) - 4),
					Type:   it.relType,
					Sym:    it.sym,
					SymID:  it.symID,
					Addend: it.addend,
				})
			}
		case kindAlign:
			code = isa.AppendNop(code, int(it.size))
		}
		if err != nil {
			return nil, fmt.Errorf("asmx: encoding %s at %#x: %w", it.inst.String(), pc, err)
		}
	}
	res.Code = code
	return res, nil
}
