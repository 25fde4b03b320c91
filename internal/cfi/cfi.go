// Package cfi models call-frame information and exception tables.
//
// It plays the role DWARF CFI and the Itanium-ABI LSDA play in the paper
// (§3.4): every function carries a little program describing, per code
// offset, how to compute the canonical frame address (CFA) and where
// callee-saved registers were spilled; functions with exception handlers
// additionally carry a call-site table mapping call instructions to landing
// pads. The binary encoding here is our own compact format rather than
// DWARF byte-exact, but it is *load-bearing*: the VM's unwinder evaluates
// these records at runtime, so a rewriter that fails to update them
// breaks exception tests.
package cfi

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"gobolt/internal/scratch"
)

// OpKind enumerates CFI instruction kinds (names follow DWARF).
type OpKind uint8

// CFI instruction kinds.
const (
	OpDefCfa         OpKind = iota // CFA = Reg + Off
	OpDefCfaRegister               // CFA register changes to Reg
	OpDefCfaOffset                 // CFA offset changes to Off
	OpOffset                       // Reg is saved at CFA + Off
	OpRestore                      // Reg is no longer saved
	OpRememberState                // push current state
	OpRestoreState                 // pop to remembered state
)

var opKindNames = [...]string{
	"OpDefCfa", "OpDefCfaRegister", "OpDefCfaOffset",
	"OpOffset", "OpRestore", "OpRememberState", "OpRestoreState",
}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", k)
}

// Inst is a single CFI instruction.
type Inst struct {
	Kind OpKind
	Reg  uint8 // register number in isa encoding (6 = rbp, 7 = rsp is 4... we use isa values)
	Off  int32
}

// String renders the instruction in the style of the paper's Figure 4,
// e.g. "OpDefCfaOffset -16" or "OpOffset Reg6 -16".
func (in Inst) String() string {
	switch in.Kind {
	case OpDefCfa:
		return fmt.Sprintf("OpDefCfa Reg%d %d", in.Reg, in.Off)
	case OpDefCfaRegister:
		return fmt.Sprintf("OpDefCfaRegister Reg%d", in.Reg)
	case OpDefCfaOffset:
		return fmt.Sprintf("OpDefCfaOffset %d", in.Off)
	case OpOffset:
		return fmt.Sprintf("OpOffset Reg%d %d", in.Reg, in.Off)
	case OpRestore:
		return fmt.Sprintf("OpRestore Reg%d", in.Reg)
	case OpRememberState:
		return "OpRememberState"
	case OpRestoreState:
		return "OpRestoreState"
	}
	return "OpUnknown"
}

// PCInst attaches a CFI instruction to a code offset within its function.
type PCInst struct {
	PC   uint32 // offset from function start; the instruction takes effect *at* this offset
	Inst Inst
}

// FDE is the frame description entry for one function (or function
// fragment, after hot/cold splitting).
type FDE struct {
	Start uint64 // absolute start address
	Len   uint32 // code length covered
	LSDA  uint64 // absolute address of the LSDA record, 0 if none
	Insts []PCInst
}

// NumRegs bounds the register numbers a State tracks: DWARF columns 0-15
// (the general-purpose registers) and 16 (the return address).
const NumRegs = 17

// State is the evaluated unwind state at some program counter. It is a
// fixed-size comparable value: two states are equal under == iff they
// describe the same CFA and the same saved registers at the same offsets
// (the offset slot of an unsaved register is always zero).
type State struct {
	CfaReg uint8
	CfaOff int32
	saved  uint32         // bit r set: register r's old value lives at CFA + offs[r]
	offs   [NumRegs]int32 // zero where the bit is clear
}

// Save records that reg's old value lives at CFA + off. Register numbers
// the state cannot track (>= NumRegs) are ignored.
func (s *State) Save(reg uint8, off int32) {
	if reg < NumRegs {
		s.saved |= 1 << reg
		s.offs[reg] = off
	}
}

// Restore marks reg as no longer saved.
func (s *State) Restore(reg uint8) {
	if reg < NumRegs {
		s.saved &^= 1 << reg
		s.offs[reg] = 0
	}
}

// SavedAt returns the CFA offset reg is saved at, and whether it is saved.
func (s *State) SavedAt(reg uint8) (int32, bool) {
	if reg < NumRegs && s.saved&(1<<reg) != 0 {
		return s.offs[reg], true
	}
	return 0, false
}

// InitialState is the ABI-defined state at function entry: CFA = rsp + 8
// (the call pushed the return address), nothing saved yet.
func InitialState() State {
	return State{CfaReg: 4 /* rsp */, CfaOff: 8}
}

// Evaluate replays the FDE's CFI program up to (and including) code offset
// pc and returns the unwind state there.
func (f *FDE) Evaluate(pc uint32) (State, error) {
	st := InitialState()
	var stack []State
	for _, pi := range f.Insts {
		if pi.PC > pc {
			break
		}
		switch pi.Inst.Kind {
		case OpDefCfa:
			st.CfaReg, st.CfaOff = pi.Inst.Reg, pi.Inst.Off
		case OpDefCfaRegister:
			st.CfaReg = pi.Inst.Reg
		case OpDefCfaOffset:
			st.CfaOff = pi.Inst.Off
		case OpOffset:
			st.Save(pi.Inst.Reg, pi.Inst.Off)
		case OpRestore:
			st.Restore(pi.Inst.Reg)
		case OpRememberState:
			stack = append(stack, st)
		case OpRestoreState:
			if len(stack) == 0 {
				return st, fmt.Errorf("cfi: restore_state with empty stack at pc %#x", pc)
			}
			st = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		}
	}
	return st, nil
}

// --- Binary encoding of the frame table (.eh_frame analogue) ---

const fdeInstSize = 12 // pc u32, kind u8, reg u8, pad u16, off i32

// EncodeFrames serializes FDEs to a frame section payload: a 4-byte
// count, then per FDE a 24-byte header and its instructions, so the
// payload is sized before it is written.
func EncodeFrames(fdes []FDE) []byte {
	sorted := make([]FDE, len(fdes))
	copy(sorted, fdes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	size := 4
	for _, f := range sorted {
		size += 24 + fdeInstSize*len(f.Insts)
	}
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(len(sorted)))
	for _, f := range sorted {
		buf = binary.LittleEndian.AppendUint64(buf, f.Start)
		buf = binary.LittleEndian.AppendUint32(buf, f.Len)
		buf = binary.LittleEndian.AppendUint64(buf, f.LSDA)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Insts)))
		for _, pi := range f.Insts {
			buf = binary.LittleEndian.AppendUint32(buf, pi.PC)
			buf = append(buf, byte(pi.Inst.Kind), pi.Inst.Reg, 0, 0)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(pi.Inst.Off))
		}
	}
	return buf
}

// DecodeFrames parses a frame section payload. The FDEs' instruction
// lists share one slab, each cut with its capacity so that appending to
// one FDE's Insts can never write into the next's.
func DecodeFrames(data []byte) ([]FDE, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("cfi: frame section too short")
	}
	n := binary.LittleEndian.Uint32(data)
	// Walk the headers first: the slices below are sized from counts
	// the section has been shown to have the bytes for.
	total := 0
	for i, p := uint32(0), 4; i < n; i++ {
		if p+24 > len(data) {
			return nil, fmt.Errorf("cfi: truncated FDE header")
		}
		cnt := int(binary.LittleEndian.Uint32(data[p+20:]))
		p += 24
		if cnt > (len(data)-p)/fdeInstSize {
			return nil, fmt.Errorf("cfi: truncated FDE body")
		}
		p += cnt * fdeInstSize
		total += cnt
	}
	fdes := make([]FDE, n)
	slab := make([]PCInst, total)
	p := 4
	for i := range fdes {
		f := &fdes[i]
		f.Start = binary.LittleEndian.Uint64(data[p:])
		f.Len = binary.LittleEndian.Uint32(data[p+8:])
		f.LSDA = binary.LittleEndian.Uint64(data[p+12:])
		cnt := binary.LittleEndian.Uint32(data[p+20:])
		p += 24
		f.Insts, slab = slab[:cnt:cnt], slab[cnt:]
		for j := range f.Insts {
			f.Insts[j] = PCInst{
				PC: binary.LittleEndian.Uint32(data[p:]),
				Inst: Inst{
					Kind: OpKind(data[p+4]),
					Reg:  data[p+5],
					Off:  int32(binary.LittleEndian.Uint32(data[p+8:])),
				},
			}
			p += fdeInstSize
		}
	}
	return fdes, nil
}

// FindFDE returns the FDE covering the absolute address addr.
func FindFDE(fdes []FDE, addr uint64) (*FDE, bool) {
	// fdes are sorted by Start.
	lo, hi := 0, len(fdes)
	for lo < hi {
		mid := (lo + hi) / 2
		if fdes[mid].Start <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil, false
	}
	f := &fdes[lo-1]
	if addr >= f.Start+uint64(f.Len) {
		return nil, false
	}
	return f, true
}

// --- LSDA (exception call-site table, .gcc_except_table analogue) ---

// CallSite maps a code range (offsets from the *fragment* start) to a
// landing pad. Landing pads are absolute addresses so that split-function
// fragments can point into one another (a landing pad may be cold).
type CallSite struct {
	Start      uint32 // code offset of the region start
	Len        uint32
	LandingPad uint64 // absolute address; 0 = unwind continues past this frame
	Action     int32  // 0 = cleanup, 1 = catch-all (paper Fig 4 "action: 1")
}

// LSDA is one function's exception table record.
type LSDA struct {
	CallSites []CallSite
}

const callSiteSize = 20

// EncodeLSDA appends the record to buf and returns the new buffer and the
// record's offset within it.
func EncodeLSDA(buf []byte, l *LSDA) ([]byte, uint32) {
	off := uint32(len(buf))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.CallSites)))
	for _, cs := range l.CallSites {
		buf = binary.LittleEndian.AppendUint32(buf, cs.Start)
		buf = binary.LittleEndian.AppendUint32(buf, cs.Len)
		buf = binary.LittleEndian.AppendUint64(buf, cs.LandingPad)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(cs.Action))
	}
	return buf, off
}

// Decode parses the record at offset off in the section payload into l,
// reusing l's call-site array when it is big enough, so a caller that
// decodes record after record into one value allocates only for the
// largest.
func (l *LSDA) Decode(data []byte, off uint32) error {
	if int(off)+4 > len(data) {
		return fmt.Errorf("cfi: LSDA offset %#x out of range", off)
	}
	n := binary.LittleEndian.Uint32(data[off:])
	p := int(off) + 4
	if p+int(n)*callSiteSize > len(data) {
		return fmt.Errorf("cfi: truncated LSDA")
	}
	l.CallSites = scratch.Zeroed(l.CallSites, int(n))
	for i := range l.CallSites {
		l.CallSites[i] = CallSite{
			Start:      binary.LittleEndian.Uint32(data[p:]),
			Len:        binary.LittleEndian.Uint32(data[p+4:]),
			LandingPad: binary.LittleEndian.Uint64(data[p+8:]),
			Action:     int32(binary.LittleEndian.Uint32(data[p+16:])),
		}
		p += callSiteSize
	}
	return nil
}

// Lookup returns the landing pad for a return address at code offset pc
// (offset from fragment start), or 0 if the range has no handler.
func (l *LSDA) Lookup(pc uint32) (uint64, int32, bool) {
	for _, cs := range l.CallSites {
		if pc >= cs.Start && pc < cs.Start+cs.Len {
			return cs.LandingPad, cs.Action, cs.LandingPad != 0
		}
	}
	return 0, 0, false
}

// Section names used across the toolchain.
const (
	FrameSectionName = ".eh_frame"
	LSDASectionName  = ".gcc_except_table"
)

// AppendStateDiff appends to dst the CFI instructions that transform
// state `from` into state `to`, and returns the extended slice. Code
// emitters use it to splice correct unwind info between arbitrarily
// reordered blocks instead of replaying prologue history; appending into
// a list the caller reuses keeps the diff allocation-free.
func AppendStateDiff(dst []Inst, from, to *State) []Inst {
	if *from == *to {
		return dst
	}
	if from.CfaReg != to.CfaReg || from.CfaOff != to.CfaOff {
		dst = append(dst, Inst{Kind: OpDefCfa, Reg: to.CfaReg, Off: to.CfaOff})
	}
	// Deterministic order: restores then offsets, by register number.
	for m := from.saved &^ to.saved; m != 0; m &= m - 1 {
		dst = append(dst, Inst{Kind: OpRestore, Reg: uint8(bits.TrailingZeros32(m))})
	}
	for m := to.saved; m != 0; m &= m - 1 {
		r := uint8(bits.TrailingZeros32(m))
		if from.saved&(1<<r) == 0 || from.offs[r] != to.offs[r] {
			dst = append(dst, Inst{Kind: OpOffset, Reg: r, Off: to.offs[r]})
		}
	}
	return dst
}
