// Package asmx is the function-body assembler shared by the mini compiler
// and by gobolt's code emitter. It lays out a stream of instructions,
// binds labels, performs rel8/rel32 branch relaxation to a fixpoint
// (starting short and widening — the 2-byte vs 6-byte Jcc trade-off from
// paper §3.1), inserts alignment NOPs, and records relocations for
// references the linker must patch.
package asmx

import (
	"fmt"
	"slices"

	"gobolt/internal/isa"
	"gobolt/internal/obj"
	"gobolt/internal/scratch"
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
	inst   isa.Inst
	kind   itemKind
	target Label // kindBranch
	// kindReloc
	relType uint32
	name    int32 // Assembler.names[name-1] is the symbol's name; 0 = none
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
	// items holds no pointer — EmitReloc's names live in names — so
	// appending one costs no GC write barrier while a collection marks.
	items     []item
	names     []string
	labels    []int    // label -> item index (position *before* that item)
	labelOffs []uint32 // Layout's reusable label-offset scratch
	base      uint64   // the address Layout laid the stream out at
	size      Size     // what Layout found the encoding needs
}

// New returns an empty assembler.
func New() *Assembler { return &Assembler{} }

// Reset clears the assembler for reuse, keeping its backing storage.
// Hot callers (gobolt's emitter) hold one assembler per worker and Reset
// it between functions, and hand Finish buffers with the room Layout
// reported, so steady-state assembly allocates nothing.
func (a *Assembler) Reset() {
	a.items = a.items[:0]
	a.labels = a.labels[:0]
	clear(a.names)
	a.names = a.names[:0]
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
// linker-patched field (call rel32, RIP-relative disp32; Finish encodes
// the latter as 0, whatever address the instruction holds). The
// relocation is recorded at (instruction end - 4) with the given
// type/sym/addend.
func (a *Assembler) EmitReloc(i isa.Inst, relType uint32, sym string, addend int64) {
	a.names = append(a.names, sym)
	a.items = append(a.items, item{kind: kindReloc, inst: i, relType: relType, name: int32(len(a.names)), addend: addend})
}

// EmitRelocID is EmitReloc with a packed numeric symbol instead of a
// name (obj.Reloc.SymID); gobolt's emitter uses it to keep the hot
// emission path free of per-relocation string building.
func (a *Assembler) EmitRelocID(i isa.Inst, relType uint32, symID obj.SymID, addend int64) {
	a.items = append(a.items, item{kind: kindReloc, inst: i, relType: relType, symID: symID, addend: addend})
}

// symName returns the name a relocation item refers to, "" for none.
func (a *Assembler) symName(name int32) string {
	if name == 0 {
		return ""
	}
	return a.names[name-1]
}

// Align pads with NOPs to the given power-of-two boundary.
func (a *Assembler) Align(n int) {
	a.items = append(a.items, item{kind: kindAlign, align: n})
}

// Size is the encoded size of a laid-out stream: its code bytes and its
// relocations.
type Size struct {
	Code, Relocs int
}

// Result is the assembled function body. Code and Relocs are the buffers
// the caller handed Finish, extended by the body; LabelOffs aliases
// assembler-owned scratch and is only valid until the next Layout or
// Reset on the same assembler.
type Result struct {
	Code      []byte
	LabelOffs []uint32 // label -> byte offset within the body
	Relocs    []obj.Reloc
}

// Layout lays out the stream at the given base address and returns its
// encoded size, so a caller can find the room for it before Finish.
// Relaxation: every branch starts in its rel8 form; any branch whose
// displacement does not fit is widened to rel32 and layout is recomputed,
// until a fixpoint (widening is monotone, so this terminates).
func (a *Assembler) Layout(base uint64) (Size, error) {
	a.base, a.size = base, Size{}
	a.labelOffs = scratch.Zeroed(a.labelOffs, len(a.labels))
	labelOffs := a.labelOffs
	if len(a.items) == 0 {
		return Size{}, nil
	}

	// computeLayout assigns offsets. Only an alignment pad depends on
	// them, so the first round sizes every instruction and later rounds
	// reuse those sizes; a branch widened since is resized where it widens.
	computeLayout := func(sized bool) {
		off := uint32(0)
		for idx := range a.items {
			it := &a.items[idx]
			it.off = off
			switch it.kind {
			case kindInst, kindReloc:
				// Non-label-relative instructions always use their long
				// form (fixed size regardless of final addresses).
				if !sized {
					it.size = uint32(isa.InstLen(&it.inst, true))
				}
			case kindBranch:
				if !sized {
					it.size = uint32(isa.InstLen(&it.inst, it.long))
				}
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
			return Size{}, fmt.Errorf("asmx: relaxation did not converge")
		}
		computeLayout(iter > 0)
		widened := false
		for idx := range a.items {
			it := &a.items[idx]
			if it.kind != kindBranch || it.long {
				continue
			}
			if a.labels[it.target] < 0 {
				return Size{}, fmt.Errorf("asmx: branch to unbound label %d", it.target)
			}
			targetOff := int64(labelOffs[it.target])
			rel := targetOff - int64(it.off) - int64(it.size)
			if rel < -128 || rel > 127 {
				it.long = true
				it.size = uint32(isa.InstLen(&it.inst, true))
				widened = true
			}
		}
		if !widened {
			break
		}
	}
	last := &a.items[len(a.items)-1]
	a.size.Code = int(last.off + last.size)
	for idx := range a.items {
		if a.items[idx].kind == kindReloc {
			a.size.Relocs++
		}
	}
	return a.size, nil
}

// Finish encodes the stream as the last Layout laid it out, appending the
// bytes to code and the relocations to relocs; each grows at most once,
// to exactly the room Layout reported, when it lacks that room. A caller
// that hands buffers with the room allocates nothing here.
func (a *Assembler) Finish(code []byte, relocs []obj.Reloc) (Result, error) {
	res := Result{LabelOffs: a.labelOffs[:len(a.labels)]}
	if len(a.items) == 0 {
		res.Code, res.Relocs = code, relocs
		return res, nil
	}
	base, labelOffs := a.base, res.LabelOffs
	code = slices.Grow(code, a.size.Code)
	start := len(code)
	relocs = slices.Grow(relocs, a.size.Relocs)
	for idx := range a.items {
		it := &a.items[idx]
		if uint32(len(code)-start) != it.off {
			return Result{}, fmt.Errorf("asmx: layout drift at item %d: %d != %d", idx, len(code)-start, it.off)
		}
		pc := base + uint64(it.off)
		var err error
		switch it.kind {
		case kindInst:
			code, err = isa.AppendInst(code, &it.inst, pc, true)
		case kindBranch:
			inst := it.inst
			inst.SetTargetAddr(base + uint64(labelOffs[it.target]))
			code, err = isa.AppendInst(code, &inst, pc, it.long)
		case kindReloc:
			if it.inst.M.IsRIP() && it.inst.HasMem() {
				// The patched field is the displacement: encode it as 0.
				it.inst.SetTargetAddr(pc + uint64(it.size))
			}
			code, err = isa.AppendInst(code, &it.inst, pc, true)
			if err == nil {
				relocs = append(relocs, obj.Reloc{
					Off:    uint32(len(code) - start - 4),
					Type:   it.relType,
					Sym:    a.symName(it.name),
					SymID:  it.symID,
					Addend: it.addend,
				})
			}
		case kindAlign:
			code = isa.AppendNop(code, int(it.size))
		}
		if err != nil {
			return Result{}, fmt.Errorf("asmx: encoding %s at %#x: %w", it.inst.Format(pc, nil), pc, err)
		}
	}
	res.Code, res.Relocs = code, relocs
	return res, nil
}
