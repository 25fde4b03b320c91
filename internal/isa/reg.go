// Package isa models the subset of the x86-64 instruction set that the
// gobolt toolchain emits, decodes, executes, and rewrites.
//
// The subset is small but byte-accurate: REX prefixes, ModRM/SIB addressing,
// RIP-relative operands, rel8/rel32 branch forms (the 2-byte vs 6-byte Jcc
// trade-off discussed in the BOLT paper §3.1), multi-byte alignment NOPs,
// and the legacy-AMD `repz retq` form targeted by the strip-rep-ret pass.
package isa

import "strings"

// Reg is a general-purpose 64-bit register. The numeric value is the
// hardware encoding used in ModRM/SIB bytes (REX extension included).
type Reg uint8

// General-purpose registers in hardware encoding order.
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	// NoReg marks an absent register operand (e.g. no index register).
	NoReg Reg = 0xFF
)

// NumRegs is the number of addressable general-purpose registers.
const NumRegs = 16

var regNames = [NumRegs]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

// String returns the AT&T-style name without the % sigil.
func (r Reg) String() string {
	if r < NumRegs {
		return regNames[r]
	}
	return "noreg"
}

// ATT returns the AT&T-syntax operand spelling, e.g. "%rax".
func (r Reg) ATT() string { return "%" + r.String() }

// lo3 returns the low three bits used in ModRM/SIB fields.
func (r Reg) lo3() byte { return byte(r) & 7 }

// hi returns the REX extension bit.
func (r Reg) hi() byte { return byte(r) >> 3 & 1 }

// CallerSaved reports whether the System V AMD64 ABI treats r as
// caller-saved (clobbered by calls).
func (r Reg) CallerSaved() bool {
	switch r {
	case RAX, RCX, RDX, RSI, RDI, R8, R9, R10, R11:
		return true
	}
	return false
}

// CalleeSaved reports whether r must be preserved across calls.
func (r Reg) CalleeSaved() bool {
	switch r {
	case RBX, RBP, R12, R13, R14, R15:
		return true
	}
	return false
}

// Cond is an x86 condition code in hardware encoding order (the low nibble
// of the Jcc opcode).
type Cond uint8

// Condition codes.
const (
	CondO Cond = iota
	CondNO
	CondB
	CondAE
	CondE
	CondNE
	CondBE
	CondA
	CondS
	CondNS
	CondP
	CondNP
	CondL
	CondGE
	CondLE
	CondG
)

var condNames = [16]string{
	"o", "no", "b", "ae", "e", "ne", "be", "a",
	"s", "ns", "p", "np", "l", "ge", "le", "g",
}

// String returns the mnemonic suffix, e.g. "e" for je.
func (c Cond) String() string {
	if c < 16 {
		return condNames[c]
	}
	return "??"
}

// Invert returns the logically opposite condition (je <-> jne, ...).
// x86 encodes inversion by flipping the low bit.
func (c Cond) Invert() Cond { return c ^ 1 }

// RegSet is a bitset over the 16 general-purpose registers plus the FLAGS
// pseudo-register (bit 16). It is the currency of the liveness analysis
// used by the frame-opts and shrink-wrapping passes.
type RegSet uint32

// FlagsBit marks the RFLAGS pseudo-register inside a RegSet.
const FlagsBit RegSet = 1 << 16

// RegMask returns the set containing only r.
func RegMask(r Reg) RegSet {
	if r >= NumRegs {
		return 0
	}
	return 1 << r
}

// Add returns s with r added.
func (s RegSet) Add(r Reg) RegSet { return s | RegMask(r) }

// Remove returns s with r removed.
func (s RegSet) Remove(r Reg) RegSet { return s &^ RegMask(r) }

// Has reports whether r is in s.
func (s RegSet) Has(r Reg) bool { return s&RegMask(r) != 0 }

// CallerSavedSet is the set of all caller-saved registers.
func CallerSavedSet() RegSet {
	var s RegSet
	for r := Reg(0); r < NumRegs; r++ {
		if r.CallerSaved() {
			s = s.Add(r)
		}
	}
	return s
}

// String lists the members for debugging, e.g. "{rax,rdx,flags}".
func (s RegSet) String() string {
	var parts []string
	for r := Reg(0); r < NumRegs; r++ {
		if s.Has(r) {
			parts = append(parts, r.String())
		}
	}
	if s&FlagsBit != 0 {
		parts = append(parts, "flags")
	}
	return "{" + strings.Join(parts, ",") + "}"
}
