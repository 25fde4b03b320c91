package isa

import (
	"encoding/binary"
	"fmt"
)

// Op identifies an operation together with its operand form. Keeping the
// form in the opcode (MOVrr vs MOVri vs MOVrm...) makes the encoder,
// decoder, and interpreter simple exhaustive switches.
type Op uint8

// Operations. Suffix convention: r = register, i = immediate, m = memory.
// For two-operand forms the destination is first (R1).
const (
	INVALID Op = iota

	// Data movement (64-bit unless noted).
	MOVrr    // mov  R1 <- R2
	MOVri    // mov  R1 <- imm32 (sign-extended)
	MOVabs   // movabs R1 <- imm64
	MOVrm    // mov  R1 <- [M]
	MOVmr    // mov  [M] <- R1
	MOVZXBrm // movzbq R1 <- byte[M]
	MOVSXDrm // movslq R1 <- dword[M]
	LEA      // lea  R1 <- effective address of M

	// Arithmetic / logic. All set FLAGS.
	ADDrr  // add R1 += R2
	ADDri  // add R1 += imm
	SUBrr  // sub R1 -= R2
	SUBri  // sub R1 -= imm
	IMULrr // imul R1 *= R2 (flags set but undefined bits; we model OF/CF=0)
	XORrr  // xor R1 ^= R2
	ANDri  // and R1 &= imm
	SHLri  // shl R1 <<= imm
	SHRri  // shr R1 >>= imm (logical)

	// Comparison (FLAGS only).
	CMPrr  // flags from R1 - R2
	CMPri  // flags from R1 - imm
	TESTrr // flags from R1 & R2

	// Control flow.
	JMP     // jmp   target (direct)
	JCC     // jCC   target (direct, conditional)
	JMPr    // jmp   *R1
	JMPm    // jmp   *[M]
	CALL    // call  target (direct)
	CALLr   // call  *R1
	CALLm   // call  *[M]
	RET     // ret
	REPZRET // repz ret (legacy AMD form; stripped by strip-rep-ret)

	// Stack.
	PUSH // push R1
	POP  // pop  R1

	// Misc.
	NOP // alignment filler; Imm holds the byte length (1..15)
	UD2 // trap
	HLT // VM program exit

	numOps
)

// Mem is a memory operand: [Base + Index*Scale + disp] or, with Base
// RIP, [RIP + disp]. Its displacement is not stored here but in the
// instruction's word (see Inst), so the operand is three bytes with no
// alignment.
type Mem struct {
	Base  Reg // RIP for a RIP-relative operand, whose Index is NoReg
	Index Reg
	Scale uint8 // 1, 2, 4, or 8; meaningful only when Index != NoReg
}

// IsRIP reports whether m is RIP-relative.
func (m Mem) IsRIP() bool { return m.Base == RIP }

// Inst is one machine instruction. Its one wide operand lives in a
// single word: the immediate (or NOP length) of an immediate form
// (Imm), the absolute destination of a direct branch or call
// (TargetAddr), the displacement of a base-relative memory operand
// (Disp), or the absolute address of a RIP-relative one (TargetAddr).
// No form carries two. Decode fills the addresses from the instruction's
// pc and AppendInst turns them back into displacements from the pc it
// encodes at, so an instruction moves to another address unchanged. The
// word is stored as little-endian bytes, so the struct packs to 16 bytes
// with 1-byte alignment (the accessors compile to one load or store);
// every IR instruction embeds one.
type Inst struct {
	arg [8]byte
	M   Mem

	Op Op
	R1 Reg // destination / primary operand
	R2 Reg // source
	Cc Cond

	// Size is the length Decode read the instruction from, 0 for one
	// built by hand. It is not part of what the instruction is: the
	// encoder picks its own form, and no comparison of instructions may
	// read it.
	Size uint8
}

// NewInst returns an instruction of op with no register operands.
func NewInst(op Op) Inst {
	return Inst{Op: op, R1: NoReg, R2: NoReg, M: Mem{Base: NoReg, Index: NoReg}}
}

// Imm returns the immediate, or a NOP's byte length.
func (i *Inst) Imm() int64 { return int64(binary.LittleEndian.Uint64(i.arg[:])) }

// SetImm sets the immediate, or a NOP's byte length.
func (i *Inst) SetImm(v int64) { binary.LittleEndian.PutUint64(i.arg[:], uint64(v)) }

// TargetAddr returns the absolute destination of a direct branch or
// call, or the absolute address of a RIP-relative memory operand.
func (i *Inst) TargetAddr() uint64 { return binary.LittleEndian.Uint64(i.arg[:]) }

// SetTargetAddr sets the absolute destination of a direct branch or
// call, or the absolute address of a RIP-relative memory operand.
func (i *Inst) SetTargetAddr(a uint64) { binary.LittleEndian.PutUint64(i.arg[:], a) }

// Disp returns the displacement of a base-relative memory operand.
func (i *Inst) Disp() int64 { return int64(binary.LittleEndian.Uint64(i.arg[:])) }

// SetDisp sets the displacement of a base-relative memory operand.
func (i *Inst) SetDisp(d int32) { binary.LittleEndian.PutUint64(i.arg[:], uint64(int64(d))) }

// HasImm reports whether the instruction's word is an immediate (or a
// NOP length) rather than an address.
func (i *Inst) HasImm() bool {
	switch i.Op {
	case MOVri, MOVabs, ADDri, SUBri, ANDri, SHLri, SHRri, CMPri, NOP:
		return true
	}
	return false
}

// IsBranch reports whether the instruction redirects control flow
// (excluding calls, which fall through after returning).
func (i *Inst) IsBranch() bool {
	switch i.Op {
	case JMP, JCC, JMPr, JMPm, RET, REPZRET:
		return true
	}
	return false
}

// IsDirectBranch reports JMP or JCC.
func (i *Inst) IsDirectBranch() bool { return i.Op == JMP || i.Op == JCC }

// IsCall reports any call form.
func (i *Inst) IsCall() bool { return i.Op == CALL || i.Op == CALLr || i.Op == CALLm }

// IsIndirectBranch reports a computed jump (not call, not return).
func (i *Inst) IsIndirectBranch() bool { return i.Op == JMPr || i.Op == JMPm }

// IsReturn reports ret / repz ret.
func (i *Inst) IsReturn() bool { return i.Op == RET || i.Op == REPZRET }

// IsTerminator reports whether the instruction ends a basic block.
func (i *Inst) IsTerminator() bool { return i.IsBranch() || i.Op == UD2 || i.Op == HLT }

// memOps has bit op set for each op with a memory operand.
const memOps uint64 = 1<<MOVrm | 1<<MOVmr | 1<<MOVZXBrm | 1<<MOVSXDrm | 1<<LEA | 1<<JMPm | 1<<CALLm

// HasMem reports whether the instruction has a memory operand.
func (i *Inst) HasMem() bool { return memOps>>i.Op&1 != 0 }

// Uses returns the set of registers read by the instruction.
// Call semantics: argument registers (RDI, RSI, RDX, RCX, R8, R9) are
// treated as used so liveness stays conservative.
func (i *Inst) Uses() RegSet {
	var s RegSet
	addMem := func() {
		if i.M.Base != NoReg {
			s = s.Add(i.M.Base)
		}
		if i.M.Index != NoReg {
			s = s.Add(i.M.Index)
		}
	}
	switch i.Op {
	case MOVrr, MOVSXDrm:
		if i.Op == MOVrr {
			s = s.Add(i.R2)
		} else {
			addMem()
		}
	case MOVri, MOVabs:
	case MOVrm, MOVZXBrm, LEA:
		addMem()
	case MOVmr:
		s = s.Add(i.R1)
		addMem()
	case ADDrr, SUBrr, IMULrr, XORrr, CMPrr, TESTrr:
		s = s.Add(i.R1).Add(i.R2)
	case ADDri, SUBri, ANDri, SHLri, SHRri, CMPri:
		s = s.Add(i.R1)
	case JCC:
		s |= FlagsBit
	case JMPr, CALLr:
		s = s.Add(i.R1)
	case JMPm, CALLm:
		addMem()
	case PUSH:
		s = s.Add(i.R1).Add(RSP)
	case POP:
		s = s.Add(RSP)
	case RET, REPZRET:
		s = s.Add(RSP)
	}
	if i.IsCall() {
		s = s.Add(RDI).Add(RSI).Add(RDX).Add(RCX).Add(R8).Add(R9).Add(RSP)
	}
	return s
}

// Defs returns the set of registers written by the instruction.
// Calls clobber all caller-saved registers plus FLAGS.
func (i *Inst) Defs() RegSet {
	var s RegSet
	switch i.Op {
	case MOVrr, MOVri, MOVabs, MOVrm, MOVZXBrm, MOVSXDrm, LEA:
		s = s.Add(i.R1)
	case ADDrr, ADDri, SUBrr, SUBri, IMULrr, XORrr, ANDri, SHLri, SHRri:
		s = s.Add(i.R1)
		s |= FlagsBit
	case CMPrr, CMPri, TESTrr:
		s |= FlagsBit
	case PUSH:
		s = s.Add(RSP)
	case POP:
		s = s.Add(i.R1).Add(RSP)
	case RET, REPZRET:
		s = s.Add(RSP)
	}
	if i.IsCall() {
		s |= CallerSavedSet() | FlagsBit
		s = s.Add(RSP)
	}
	return s
}

var opNames = [numOps]string{
	INVALID: "(invalid)",
	MOVrr:   "movq", MOVri: "movq", MOVabs: "movabsq", MOVrm: "movq",
	MOVmr: "movq", MOVZXBrm: "movzbq", MOVSXDrm: "movslq", LEA: "leaq",
	ADDrr: "addq", ADDri: "addq", SUBrr: "subq", SUBri: "subq",
	IMULrr: "imulq", XORrr: "xorq", ANDri: "andq", SHLri: "shlq", SHRri: "shrq",
	CMPrr: "cmpq", CMPri: "cmpq", TESTrr: "testq",
	JMP: "jmp", JCC: "j", JMPr: "jmp", JMPm: "jmp",
	CALL: "callq", CALLr: "callq", CALLm: "callq",
	RET: "retq", REPZRET: "repz retq",
	PUSH: "pushq", POP: "popq",
	NOP: "nop", UD2: "ud2", HLT: "hlt",
}

// Mnemonic returns the AT&T mnemonic (JCC includes the condition suffix).
func (i *Inst) Mnemonic() string {
	if i.Op == JCC {
		return "j" + i.Cc.String()
	}
	if int(i.Op) < len(opNames) {
		return opNames[i.Op]
	}
	return fmt.Sprintf("op%d", i.Op)
}
