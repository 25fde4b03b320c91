package isa

import (
	"encoding/binary"
	"fmt"
)

// DecodeError describes an undecodable byte sequence. The BOLT engine
// reacts by marking the containing function non-simple rather than
// aborting (precise disassembly is undecidable in general; see paper §3.3).
type DecodeError struct {
	PC   uint64
	Byte byte
	Msg  string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("isa: cannot decode at %#x (byte %#02x): %s", e.PC, e.Byte, e.Msg)
}

// MaxInstLen is the architectural limit on an instruction's length.
const MaxInstLen = 15

// Decode decodes the instruction at the start of code, at address pc,
// into *dst and returns its encoded length, which it also stores in
// dst.Size. Direct branch targets and RIP-relative memory operands are
// resolved to absolute addresses in TargetAddr. On error *dst is
// NewInst(INVALID) and the length 0; only an error allocates.
func Decode(dst *Inst, code []byte, pc uint64) (int, error) {
	n, err := decode(dst, code, pc)
	dst.Size = uint8(n)
	return n, err
}

// decode is Decode but for dst.Size.
func decode(dst *Inst, code []byte, pc uint64) (int, error) {
	*dst = NewInst(INVALID)
	if len(code) == 0 {
		return 0, &DecodeError{PC: pc, Msg: "empty"}
	}
	// An instruction running past MaxInstLen bytes (a long prefix run)
	// reads as truncated, as the hardware faults on it.
	code = code[:min(len(code), MaxInstLen)]

	p := 0
	repz := false
	var rex byte
	hasRex := false
	// Prefixes. The 0x66 data-size prefix appears only in multi-byte NOPs.
prefixes:
	for ; p < len(code); p++ {
		switch b := code[p]; {
		case b == 0xF3:
			repz = true
		case b == 0x66:
		case b&0xF0 == 0x40:
			rex = b
			hasRex = true
		default:
			break prefixes
		}
	}
	if p >= len(code) {
		return fail(code, pc, "truncated prefixes")
	}
	rexW := rex >> 3 & 1
	rexR := Reg(rex>>2&1) << 3
	rexB := Reg(rex&1) << 3

	op := code[p]
	p++
	switch {
	case op == 0x89 || op == 0x8B: // mov rr / rm / mr
		reg, rm, m, disp, q := modRM(code, p, rex)
		if q < 0 {
			return fail(code, pc, "bad modrm")
		}
		switch {
		case rm == NoReg:
			dst.Op = MOVmr
			if op == 0x8B {
				dst.Op = MOVrm
			}
			dst.R1 = reg | rexR
			dst.setMem(m, disp, pc, q)
		case op == 0x89:
			dst.Op, dst.R1, dst.R2 = MOVrr, rm, reg|rexR
		default:
			// 8B with mod=11: mov reg<-rm; normalize to MOVrr with swapped roles.
			dst.Op, dst.R1, dst.R2 = MOVrr, reg|rexR, rm
		}
		return q, nil
	case op == 0xC7:
		reg, rm, _, _, q := modRM(code, p, rex)
		if q < 0 || rm == NoReg || reg != 0 {
			return fail(code, pc, "bad C7 form")
		}
		if q+4 > len(code) {
			return fail(code, pc, "truncated imm32")
		}
		dst.Op, dst.R1 = MOVri, rm
		dst.SetImm(int64(int32(binary.LittleEndian.Uint32(code[q:]))))
		return q + 4, nil
	case op >= 0xB8 && op <= 0xBF && rexW == 1:
		if p+8 > len(code) {
			return fail(code, pc, "truncated imm64")
		}
		dst.Op, dst.R1 = MOVabs, Reg(op-0xB8)|rexB
		dst.SetImm(int64(binary.LittleEndian.Uint64(code[p:])))
		return p + 8, nil
	case op == 0x8D || op == 0x63: // lea / movslq
		reg, rm, m, disp, q := modRM(code, p, rex)
		if q < 0 || rm != NoReg {
			if op == 0x8D {
				return fail(code, pc, "bad lea")
			}
			return fail(code, pc, "bad movslq")
		}
		dst.Op, dst.R1 = MOVSXDrm, reg|rexR
		if op == 0x8D {
			dst.Op = LEA
		}
		dst.setMem(m, disp, pc, q)
		return q, nil
	case op == 0x01 || op == 0x29 || op == 0x31 || op == 0x39 || op == 0x85:
		reg, rm, _, _, q := modRM(code, p, rex)
		if q < 0 || rm == NoReg {
			return fail(code, pc, "unsupported mem form")
		}
		var o Op
		switch op {
		case 0x01:
			o = ADDrr
		case 0x29:
			o = SUBrr
		case 0x31:
			o = XORrr
		case 0x39:
			o = CMPrr
		case 0x85:
			o = TESTrr
		}
		dst.Op, dst.R1, dst.R2 = o, rm, reg|rexR
		return q, nil
	case op == 0x83 || op == 0x81:
		reg, rm, _, _, q := modRM(code, p, rex)
		if q < 0 || rm == NoReg {
			return fail(code, pc, "unsupported mem form")
		}
		o := group1[reg]
		if o == INVALID {
			return fail(code, pc, "unsupported group-1 ext")
		}
		var v int64
		if op == 0x83 {
			if q+1 > len(code) {
				return fail(code, pc, "truncated imm")
			}
			v = int64(int8(code[q]))
			q++
		} else {
			if q+4 > len(code) {
				return fail(code, pc, "truncated imm")
			}
			v = int64(int32(binary.LittleEndian.Uint32(code[q:])))
			q += 4
		}
		dst.Op, dst.R1 = o, rm
		dst.SetImm(v)
		return q, nil
	case op == 0xC1:
		reg, rm, _, _, q := modRM(code, p, rex)
		if q < 0 || rm == NoReg {
			return fail(code, pc, "bad shift")
		}
		var o Op
		switch reg {
		case 4:
			o = SHLri
		case 5:
			o = SHRri
		default:
			return fail(code, pc, "unsupported shift ext")
		}
		if q+1 > len(code) {
			return fail(code, pc, "truncated imm8")
		}
		dst.Op, dst.R1 = o, rm
		dst.SetImm(int64(int8(code[q])) & 63)
		return q + 1, nil
	case op == 0xEB || op >= 0x70 && op <= 0x7F: // jmp / jcc rel8
		if p+1 > len(code) {
			return fail(code, pc, "truncated rel8")
		}
		dst.Op = JMP
		if op != 0xEB {
			dst.Op, dst.Cc = JCC, Cond(op-0x70)
		}
		// rel targets are relative to the end of the instruction.
		dst.SetTargetAddr(pc + uint64(p+1) + uint64(int8(code[p])))
		return p + 1, nil
	case op == 0xE9 || op == 0xE8: // jmp / call rel32
		if p+4 > len(code) {
			return fail(code, pc, "truncated rel32")
		}
		dst.Op = JMP
		if op == 0xE8 {
			dst.Op = CALL
		}
		dst.SetTargetAddr(pc + uint64(p+4) + uint64(int32(binary.LittleEndian.Uint32(code[p:]))))
		return p + 4, nil
	case op == 0xFF:
		reg, rm, m, disp, q := modRM(code, p, rex)
		if q < 0 {
			return fail(code, pc, "bad FF form")
		}
		switch {
		case reg == 2 && rm != NoReg:
			dst.Op, dst.R1 = CALLr, rm
		case reg == 2:
			dst.Op = CALLm
			dst.setMem(m, disp, pc, q)
		case reg == 4 && rm != NoReg:
			dst.Op, dst.R1 = JMPr, rm
		case reg == 4:
			dst.Op = JMPm
			dst.setMem(m, disp, pc, q)
		default:
			return fail(code, pc, "unsupported FF ext")
		}
		return q, nil
	case op == 0xC3:
		dst.Op = RET
		if repz {
			dst.Op = REPZRET
		}
		return p, nil
	case op >= 0x50 && op <= 0x57:
		dst.Op, dst.R1 = PUSH, Reg(op-0x50)|rexB
		return p, nil
	case op >= 0x58 && op <= 0x5F:
		dst.Op, dst.R1 = POP, Reg(op-0x58)|rexB
		return p, nil
	case op == 0x90 && !hasRex:
		dst.Op = NOP
		dst.SetImm(int64(p)) // prefixes (e.g. 0x66) already counted
		return p, nil
	case op == 0xF4:
		dst.Op = HLT
		return p, nil
	case op == 0x0F:
		if p+1 > len(code) {
			return fail(code, pc, "truncated 0F")
		}
		op2 := code[p]
		p++
		switch {
		case op2 == 0xB6:
			reg, rm, m, disp, q := modRM(code, p, rex)
			if q < 0 || rm != NoReg {
				return fail(code, pc, "bad movzbq")
			}
			dst.Op, dst.R1 = MOVZXBrm, reg|rexR
			dst.setMem(m, disp, pc, q)
			return q, nil
		case op2 == 0xAF:
			reg, rm, _, _, q := modRM(code, p, rex)
			if q < 0 || rm == NoReg {
				return fail(code, pc, "bad imul")
			}
			dst.Op, dst.R1, dst.R2 = IMULrr, reg|rexR, rm
			return q, nil
		case op2 >= 0x80 && op2 <= 0x8F:
			if p+4 > len(code) {
				return fail(code, pc, "truncated rel32")
			}
			dst.Op, dst.Cc = JCC, Cond(op2-0x80)
			dst.SetTargetAddr(pc + uint64(p+4) + uint64(int32(binary.LittleEndian.Uint32(code[p:]))))
			return p + 4, nil
		case op2 == 0x0B:
			dst.Op = UD2
			return p, nil
		case op2 == 0x1F:
			// Multi-byte NOP: 0F 1F /0 with arbitrary memory operand.
			_, rm, _, _, q := modRM(code, p, rex)
			if q < 0 || rm != NoReg {
				return fail(code, pc, "bad long nop")
			}
			dst.Op = NOP
			dst.SetImm(int64(q))
			return q, nil
		}
		return fail(code, pc, "unknown 0F opcode")
	}
	return fail(code, pc, "unknown opcode")
}

// group1 maps the ModRM reg field of the 0x81 / 0x83 immediate group to
// its operation; INVALID marks the extensions the toolchain never emits.
var group1 = [8]Op{0: ADDri, 4: ANDri, 5: SUBri, 7: CMPri}

// fail reports an undecodable instruction at pc. Decode writes *dst
// only once the instruction is known to decode, so it still holds
// NewInst(INVALID).
func fail(code []byte, pc uint64, msg string) (int, error) {
	return 0, &DecodeError{PC: pc, Byte: code[0], Msg: msg}
}

// setMem stores memory operand m with displacement disp in dst. A
// RIP-relative displacement becomes the absolute address it reaches from
// the end of the instruction, which no memory form extends past its
// operand: pc+end.
func (dst *Inst) setMem(m Mem, disp int32, pc uint64, end int) {
	dst.M = m
	if m.IsRIP() {
		dst.SetTargetAddr(pc + uint64(end) + uint64(int64(disp)))
	} else {
		dst.SetDisp(disp)
	}
}

// modRM decodes the ModRM byte at code[p] and the SIB byte and
// displacement that follow it, under the REX prefix rex. It returns the
// reg field without REX.R, the operand — register rm when mod=11,
// otherwise rm is NoReg and the operand is m with displacement disp —
// and the position after the operand, or q < 0 when the bytes run out
// or the form is one the toolchain never emits.
func modRM(code []byte, p int, rex byte) (reg Reg, rm Reg, m Mem, disp int32, q int) {
	if p >= len(code) {
		return 0, NoReg, Mem{}, 0, -1
	}
	modrm := code[p]
	p++
	mod := modrm >> 6
	reg = Reg(modrm >> 3 & 7)
	rmBits := modrm & 7
	rexX := rex >> 1 & 1
	rexB := rex & 1
	if mod == 3 {
		return reg, Reg(rmBits | rexB<<3), Mem{}, 0, p
	}
	m = Mem{Base: NoReg, Index: NoReg, Scale: 1}
	if mod == 0 && rmBits == 5 {
		// RIP-relative.
		if p+4 > len(code) {
			return 0, NoReg, Mem{}, 0, -1
		}
		m.Base = RIP
		return reg, NoReg, m, int32(binary.LittleEndian.Uint32(code[p:])), p + 4
	}
	if rmBits == 4 {
		if p >= len(code) {
			return 0, NoReg, Mem{}, 0, -1
		}
		sib := code[p]
		p++
		base := sib & 7
		if mod == 0 && base == 5 {
			// disp32 with no base; we never emit this form.
			return 0, NoReg, Mem{}, 0, -1
		}
		if idx := sib >> 3 & 7; idx != 4 || rexX == 1 {
			m.Index = Reg(idx | rexX<<3)
			m.Scale = 1 << (sib >> 6)
		}
		m.Base = Reg(base | rexB<<3)
	} else {
		m.Base = Reg(rmBits | rexB<<3)
	}
	switch mod {
	case 1:
		if p >= len(code) {
			return 0, NoReg, Mem{}, 0, -1
		}
		disp = int32(int8(code[p]))
		p++
	case 2:
		if p+4 > len(code) {
			return 0, NoReg, Mem{}, 0, -1
		}
		disp = int32(binary.LittleEndian.Uint32(code[p:]))
		p += 4
	}
	return reg, NoReg, m, disp, p
}
