package isa

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoding errors.
var (
	errBranchRange = fmt.Errorf("isa: rel8 branch target out of range")
)

// rex builds a REX prefix byte. w=1 selects 64-bit operand size.
func rex(w, r, x, b byte) byte { return 0x40 | w<<3 | r<<2 | x<<1 | b }

// needsSIB reports whether the memory operand requires a SIB byte.
func needsSIB(m Mem) bool {
	return m.Index != NoReg || m.Base == RSP || m.Base == R12
}

// appendModRM encodes the ModRM (+ optional SIB, + displacement) bytes for
// a register field `reg` and memory operand m with displacement disp,
// which for a RIP-relative operand counts from the instruction end.
func appendModRM(buf []byte, reg byte, m Mem, disp int64) []byte {
	if m.RIP {
		buf = append(buf, reg<<3|0x05) // mod=00 rm=101 -> RIP+disp32
		return binary.LittleEndian.AppendUint32(buf, uint32(disp))
	}
	var mod byte
	// RBP/R13 as base with mod=00 means RIP/abs, so force a displacement.
	forceDisp := m.Base == RBP || m.Base == R13
	switch {
	case disp == 0 && !forceDisp:
		mod = 0
	case imm8OK(disp):
		mod = 1
	default:
		mod = 2
	}
	if needsSIB(m) {
		buf = append(buf, mod<<6|reg<<3|0x04)
		idx := byte(0x04) // none
		scaleBits := byte(0)
		if m.Index != NoReg {
			idx = m.Index.lo3()
			switch m.Scale {
			case 1:
				scaleBits = 0
			case 2:
				scaleBits = 1
			case 4:
				scaleBits = 2
			case 8:
				scaleBits = 3
			}
		}
		buf = append(buf, scaleBits<<6|idx<<3|m.Base.lo3())
	} else {
		buf = append(buf, mod<<6|reg<<3|m.Base.lo3())
	}
	switch mod {
	case 1:
		buf = append(buf, byte(int8(disp)))
	case 2:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(disp))
	}
	return buf
}

// modRMLen returns the byte length of ModRM+SIB+disp for operand m with
// displacement disp.
func modRMLen(m Mem, disp int64) int {
	if m.RIP {
		return 5
	}
	n := 1
	if needsSIB(m) {
		n++
	}
	forceDisp := m.Base == RBP || m.Base == R13
	switch {
	case disp == 0 && !forceDisp:
	case imm8OK(disp):
		n++
	default:
		n += 4
	}
	return n
}

// memRex returns the REX X and B bits contributed by a memory operand.
func memRex(m Mem) (x, b byte) {
	if m.Index != NoReg {
		x = m.Index.hi()
	}
	if m.Base != NoReg && !m.RIP {
		b = m.Base.hi()
	}
	return
}

// imm8OK reports whether v fits a sign-extended imm8.
func imm8OK(v int64) bool { return v >= math.MinInt8 && v <= math.MaxInt8 }

// imm32OK reports whether v fits a sign-extended imm32.
func imm32OK(v int64) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }

// InstLen returns the encoded length of i in bytes. For direct branches,
// `long` selects the rel32 form; otherwise the rel8 form length is
// returned. The length never depends on the displacement value, so the
// emitter can compute layout before resolving targets.
func InstLen(i *Inst, long bool) int {
	switch i.Op {
	case MOVrr, ADDrr, SUBrr, XORrr, CMPrr, TESTrr:
		return 3
	case IMULrr:
		return 4
	case MOVri:
		return 7
	case MOVabs:
		return 10
	case MOVrm, MOVmr, LEA, MOVSXDrm:
		return 2 + modRMLen(i.M, i.Disp())
	case MOVZXBrm:
		return 3 + modRMLen(i.M, i.Disp())
	case ADDri, SUBri, ANDri, CMPri:
		if imm8OK(i.Imm()) {
			return 4
		}
		return 7
	case SHLri, SHRri:
		return 4
	case JMP:
		if long {
			return 5
		}
		return 2
	case JCC:
		if long {
			return 6
		}
		return 2
	case JMPr, CALLr:
		n := 2
		if i.R1.hi() != 0 {
			n++
		}
		return n
	case JMPm, CALLm:
		n := 1 + modRMLen(i.M, i.Disp())
		if x, b := memRex(i.M); x != 0 || b != 0 {
			n++
		}
		return n
	case CALL:
		return 5
	case RET:
		return 1
	case REPZRET:
		return 2
	case PUSH, POP:
		if i.R1.hi() != 0 {
			return 2
		}
		return 1
	case NOP:
		return int(i.Imm())
	case UD2:
		return 2
	case HLT:
		return 1
	}
	return 0
}

// nopPatterns holds the recommended multi-byte NOP encodings (Intel SDM).
var nopPatterns = [...][]byte{
	1: {0x90},
	2: {0x66, 0x90},
	3: {0x0F, 0x1F, 0x00},
	4: {0x0F, 0x1F, 0x40, 0x00},
	5: {0x0F, 0x1F, 0x44, 0x00, 0x00},
	6: {0x66, 0x0F, 0x1F, 0x44, 0x00, 0x00},
	7: {0x0F, 0x1F, 0x80, 0x00, 0x00, 0x00, 0x00},
	8: {0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
	9: {0x66, 0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
}

// AppendNop appends n bytes of alignment filler.
func AppendNop(buf []byte, n int) []byte {
	for n > 0 {
		k := n
		if k > 9 {
			k = 9
		}
		buf = append(buf, nopPatterns[k]...)
		n -= k
	}
	return buf
}

// memDisp returns the displacement that encodes i's memory operand at
// pc: a RIP-relative address becomes a displacement from the end of the
// instruction.
func (i *Inst) memDisp(pc uint64) (int64, error) {
	if !i.M.RIP {
		if d := i.Disp(); imm32OK(d) {
			return d, nil
		}
		return 0, fmt.Errorf("isa: displacement %d does not fit disp32", i.Disp())
	}
	rel := int64(i.TargetAddr()) - int64(pc) - int64(InstLen(i, true))
	if !imm32OK(rel) {
		return 0, fmt.Errorf("isa: rip-relative address %#x out of range at %#x", i.TargetAddr(), pc)
	}
	return rel, nil
}

// AppendInst encodes i at address pc and appends the bytes to buf.
// Direct branches and RIP-relative operands read i.TargetAddr(); `long`
// forces the rel32 form and an errBranchRange is returned if a rel8 form
// is requested but the target is out of range (the caller should widen
// and retry).
func AppendInst(buf []byte, i *Inst, pc uint64, long bool) ([]byte, error) {
	var disp int64
	if i.HasMem() {
		var err error
		if disp, err = i.memDisp(pc); err != nil {
			return buf, err
		}
	}
	rr := func(opcode byte, reg, rm Reg) []byte {
		b := append(buf, rex(1, reg.hi(), 0, rm.hi()), opcode)
		return append(b, 0xC0|reg.lo3()<<3|rm.lo3())
	}
	mem := func(w byte, opcodes []byte, reg byte, regHi byte) []byte {
		x, bbit := memRex(i.M)
		b := append(buf, rex(w, regHi, x, bbit))
		b = append(b, opcodes...)
		return appendModRM(b, reg, i.M, disp)
	}
	switch i.Op {
	case MOVrr:
		return rr(0x89, i.R2, i.R1), nil
	case MOVri:
		if !imm32OK(i.Imm()) {
			return buf, fmt.Errorf("isa: mov imm %d does not fit imm32", i.Imm())
		}
		b := append(buf, rex(1, 0, 0, i.R1.hi()), 0xC7, 0xC0|i.R1.lo3())
		return binary.LittleEndian.AppendUint32(b, uint32(i.Imm())), nil
	case MOVabs:
		b := append(buf, rex(1, 0, 0, i.R1.hi()), 0xB8+i.R1.lo3())
		return binary.LittleEndian.AppendUint64(b, uint64(i.Imm())), nil
	case MOVrm:
		return mem(1, []byte{0x8B}, i.R1.lo3(), i.R1.hi()), nil
	case MOVmr:
		return mem(1, []byte{0x89}, i.R1.lo3(), i.R1.hi()), nil
	case MOVZXBrm:
		return mem(1, []byte{0x0F, 0xB6}, i.R1.lo3(), i.R1.hi()), nil
	case MOVSXDrm:
		return mem(1, []byte{0x63}, i.R1.lo3(), i.R1.hi()), nil
	case LEA:
		return mem(1, []byte{0x8D}, i.R1.lo3(), i.R1.hi()), nil
	case ADDrr:
		return rr(0x01, i.R2, i.R1), nil
	case SUBrr:
		return rr(0x29, i.R2, i.R1), nil
	case XORrr:
		return rr(0x31, i.R2, i.R1), nil
	case CMPrr:
		return rr(0x39, i.R2, i.R1), nil
	case TESTrr:
		return rr(0x85, i.R2, i.R1), nil
	case IMULrr:
		b := append(buf, rex(1, i.R1.hi(), 0, i.R2.hi()), 0x0F, 0xAF)
		return append(b, 0xC0|i.R1.lo3()<<3|i.R2.lo3()), nil
	case ADDri, SUBri, ANDri, CMPri:
		var ext byte
		switch i.Op {
		case ADDri:
			ext = 0
		case SUBri:
			ext = 5
		case ANDri:
			ext = 4
		case CMPri:
			ext = 7
		}
		if imm8OK(i.Imm()) {
			b := append(buf, rex(1, 0, 0, i.R1.hi()), 0x83, 0xC0|ext<<3|i.R1.lo3())
			return append(b, byte(int8(i.Imm()))), nil
		}
		if !imm32OK(i.Imm()) {
			return buf, fmt.Errorf("isa: %s imm %d does not fit imm32", i.Mnemonic(), i.Imm())
		}
		b := append(buf, rex(1, 0, 0, i.R1.hi()), 0x81, 0xC0|ext<<3|i.R1.lo3())
		return binary.LittleEndian.AppendUint32(b, uint32(i.Imm())), nil
	case SHLri, SHRri:
		ext := byte(4)
		if i.Op == SHRri {
			ext = 5
		}
		b := append(buf, rex(1, 0, 0, i.R1.hi()), 0xC1, 0xC0|ext<<3|i.R1.lo3())
		return append(b, byte(i.Imm())), nil
	case JMP:
		if long {
			rel := int64(i.TargetAddr()) - int64(pc) - 5
			if !imm32OK(rel) {
				return buf, fmt.Errorf("isa: jmp rel32 out of range")
			}
			b := append(buf, 0xE9)
			return binary.LittleEndian.AppendUint32(b, uint32(rel)), nil
		}
		rel := int64(i.TargetAddr()) - int64(pc) - 2
		if !imm8OK(rel) {
			return buf, errBranchRange
		}
		return append(buf, 0xEB, byte(int8(rel))), nil
	case JCC:
		if long {
			rel := int64(i.TargetAddr()) - int64(pc) - 6
			if !imm32OK(rel) {
				return buf, fmt.Errorf("isa: jcc rel32 out of range")
			}
			b := append(buf, 0x0F, 0x80+byte(i.Cc))
			return binary.LittleEndian.AppendUint32(b, uint32(rel)), nil
		}
		rel := int64(i.TargetAddr()) - int64(pc) - 2
		if !imm8OK(rel) {
			return buf, errBranchRange
		}
		return append(buf, 0x70+byte(i.Cc), byte(int8(rel))), nil
	case CALL:
		rel := int64(i.TargetAddr()) - int64(pc) - 5
		if !imm32OK(rel) {
			return buf, fmt.Errorf("isa: call rel32 out of range")
		}
		b := append(buf, 0xE8)
		return binary.LittleEndian.AppendUint32(b, uint32(rel)), nil
	case JMPr, CALLr:
		ext := byte(4)
		if i.Op == CALLr {
			ext = 2
		}
		b := buf
		if i.R1.hi() != 0 {
			b = append(b, rex(0, 0, 0, 1))
		}
		return append(b, 0xFF, 0xC0|ext<<3|i.R1.lo3()), nil
	case JMPm, CALLm:
		ext := byte(4)
		if i.Op == CALLm {
			ext = 2
		}
		b := buf
		if x, bbit := memRex(i.M); x != 0 || bbit != 0 {
			b = append(b, rex(0, 0, x, bbit))
		}
		b = append(b, 0xFF)
		return appendModRM(b, ext, i.M, disp), nil
	case RET:
		return append(buf, 0xC3), nil
	case REPZRET:
		return append(buf, 0xF3, 0xC3), nil
	case PUSH:
		if i.R1.hi() != 0 {
			buf = append(buf, rex(0, 0, 0, 1))
		}
		return append(buf, 0x50+i.R1.lo3()), nil
	case POP:
		if i.R1.hi() != 0 {
			buf = append(buf, rex(0, 0, 0, 1))
		}
		return append(buf, 0x58+i.R1.lo3()), nil
	case NOP:
		return AppendNop(buf, int(i.Imm())), nil
	case UD2:
		return append(buf, 0x0F, 0x0B), nil
	case HLT:
		return append(buf, 0xF4), nil
	}
	return buf, fmt.Errorf("isa: cannot encode op %v", i.Op)
}
