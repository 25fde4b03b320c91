package isa

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// matchRef decodes code at pc with Decode, into an instruction that
// holds garbage beforehand, and with refDecode, and fails tb unless the
// two give the same instruction, length and error.
func matchRef(tb testing.TB, code []byte, pc uint64) (Inst, int, error) {
	tb.Helper()
	got := Inst{arg: [8]byte{0xef, 0xbe, 0xad, 0xde}, M: Mem{Base: R9, Index: R10, Scale: 8, RIP: true}, Op: numOps, R1: R11, R2: R12, Cc: CondG}
	n, err := Decode(&got, code, pc)
	want, wn, werr := refDecode(code, pc)
	if got != want || n != wn || !reflect.DeepEqual(err, werr) {
		tb.Fatalf("decode % x at %#x: got %+v, %d, %v; reference %+v, %d, %v", code, pc, got, n, err, want, wn, werr)
	}
	return got, n, err
}

// MatchRef is matchRef for the external tests, which decode the
// toolchain's output: this package's own tests cannot import it.
var MatchRef = matchRef

// refDecode is Decode as it stood before it decoded in place — one
// closure per operand reader over a captured cursor, the instruction
// built in a local and returned by value — kept as the oracle: Decode
// must give the same instruction, length and error for every input.
func refDecode(code []byte, pc uint64) (Inst, int, error) {
	inst := NewInst(INVALID)
	if len(code) == 0 {
		return inst, 0, &DecodeError{PC: pc, Msg: "empty"}
	}
	// An instruction running past MaxInstLen bytes (a long prefix run)
	// reads as truncated, as the hardware faults on it.
	code = code[:min(len(code), MaxInstLen)]
	fail := func(msg string) (Inst, int, error) {
		return inst, 0, &DecodeError{PC: pc, Byte: code[0], Msg: msg}
	}

	p := 0
	repz := false
	var rexB byte
	hasRex := false
	// Prefixes. The 0x66 data-size prefix appears only in multi-byte NOPs.
	for p < len(code) {
		switch code[p] {
		case 0xF3:
			repz = true
			p++
			continue
		case 0x66:
			p++
			continue
		}
		if code[p]&0xF0 == 0x40 {
			rexB = code[p]
			hasRex = true
			p++
			continue
		}
		break
	}
	if p >= len(code) {
		return fail("truncated prefixes")
	}
	rexW := rexB >> 3 & 1
	rexR := rexB >> 2 & 1
	rexX := rexB >> 1 & 1
	rexBb := rexB & 1

	need := func(n int) bool { return p+n <= len(code) }

	// parseModRM decodes ModRM (+SIB+disp) starting at code[p]; it returns
	// the reg field and either a register (mod=11) or memory operand,
	// whose displacement it leaves in disp.
	var disp int32
	parseModRM := func() (reg byte, isReg bool, rm Reg, m Mem, ok bool) {
		if !need(1) {
			return 0, false, 0, Mem{}, false
		}
		modrm := code[p]
		p++
		mod := modrm >> 6
		reg = modrm >> 3 & 7
		rmBits := modrm & 7
		m = Mem{Base: NoReg, Index: NoReg, Scale: 1}
		if mod == 3 {
			return reg, true, Reg(rmBits | rexBb<<3), m, true
		}
		if mod == 0 && rmBits == 5 {
			// RIP-relative.
			if !need(4) {
				return 0, false, 0, Mem{}, false
			}
			m.RIP = true
			disp = int32(binary.LittleEndian.Uint32(code[p:]))
			p += 4
			return reg, false, 0, m, true
		}
		if rmBits == 4 {
			if !need(1) {
				return 0, false, 0, Mem{}, false
			}
			sib := code[p]
			p++
			scale := sib >> 6
			idx := sib >> 3 & 7
			base := sib & 7
			if idx != 4 || rexX == 1 {
				m.Index = Reg(idx | rexX<<3)
				m.Scale = 1 << scale
			}
			m.Base = Reg(base | rexBb<<3)
			if mod == 0 && base == 5 {
				// disp32 with no base; we never emit this form.
				return 0, false, 0, Mem{}, false
			}
		} else {
			m.Base = Reg(rmBits | rexBb<<3)
		}
		switch mod {
		case 1:
			if !need(1) {
				return 0, false, 0, Mem{}, false
			}
			disp = int32(int8(code[p]))
			p++
		case 2:
			if !need(4) {
				return 0, false, 0, Mem{}, false
			}
			disp = int32(binary.LittleEndian.Uint32(code[p:]))
			p += 4
		}
		return reg, false, 0, m, true
	}

	imm8 := func() (int64, bool) {
		if !need(1) {
			return 0, false
		}
		v := int64(int8(code[p]))
		p++
		return v, true
	}
	imm32 := func() (int64, bool) {
		if !need(4) {
			return 0, false
		}
		v := int64(int32(binary.LittleEndian.Uint32(code[p:])))
		p += 4
		return v, true
	}

	op := code[p]
	p++

	// rel targets are relative to the end of the instruction.
	relTarget := func(rel int64) uint64 { return uint64(int64(pc) + int64(p) + rel) }

	rrInst := func(o Op, reg byte, rm Reg) (Inst, int, error) {
		inst.Op = o
		inst.R1 = rm
		inst.R2 = Reg(reg | rexR<<3)
		return inst, p, nil
	}
	// setMem stores a memory operand ending the instruction: the word
	// takes its displacement, or for RIP the absolute address reached from
	// the instruction's end.
	setMem := func(m Mem) {
		inst.M = m
		if m.RIP {
			inst.SetTargetAddr(pc + uint64(p) + uint64(int64(disp)))
		} else {
			inst.SetDisp(disp)
		}
	}
	memInst := func(o Op, reg byte, m Mem) (Inst, int, error) {
		inst.Op = o
		inst.R1 = Reg(reg | rexR<<3)
		setMem(m)
		return inst, p, nil
	}

	switch {
	case op == 0x89 || op == 0x8B: // mov rr / rm / mr
		reg, isReg, rm, m, ok := parseModRM()
		if !ok {
			return fail("bad modrm")
		}
		if isReg {
			if op == 0x89 {
				return rrInst(MOVrr, reg, rm)
			}
			// 8B with mod=11: mov reg<-rm; normalize to MOVrr with swapped roles.
			inst.Op = MOVrr
			inst.R1 = Reg(reg | rexR<<3)
			inst.R2 = rm
			return inst, p, nil
		}
		if op == 0x8B {
			return memInst(MOVrm, reg, m)
		}
		return memInst(MOVmr, reg, m)
	case op == 0xC7:
		reg, isReg, rm, _, ok := parseModRM()
		if !ok || !isReg || reg != 0 {
			return fail("bad C7 form")
		}
		v, ok := imm32()
		if !ok {
			return fail("truncated imm32")
		}
		inst.Op = MOVri
		inst.R1 = rm
		inst.SetImm(v)
		return inst, p, nil
	case op >= 0xB8 && op <= 0xBF && rexW == 1:
		if !need(8) {
			return fail("truncated imm64")
		}
		inst.Op = MOVabs
		inst.R1 = Reg(op - 0xB8 | rexBb<<3)
		inst.SetImm(int64(binary.LittleEndian.Uint64(code[p:])))
		p += 8
		return inst, p, nil
	case op == 0x8D:
		reg, isReg, _, m, ok := parseModRM()
		if !ok || isReg {
			return fail("bad lea")
		}
		return memInst(LEA, reg, m)
	case op == 0x63:
		reg, isReg, _, m, ok := parseModRM()
		if !ok || isReg {
			return fail("bad movslq")
		}
		return memInst(MOVSXDrm, reg, m)
	case op == 0x01 || op == 0x29 || op == 0x31 || op == 0x39 || op == 0x85:
		reg, isReg, rm, _, ok := parseModRM()
		if !ok || !isReg {
			return fail("unsupported mem form")
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
		return rrInst(o, reg, rm)
	case op == 0x83 || op == 0x81:
		reg, isReg, rm, _, ok := parseModRM()
		if !ok || !isReg {
			return fail("unsupported mem form")
		}
		var o Op
		switch reg {
		case 0:
			o = ADDri
		case 4:
			o = ANDri
		case 5:
			o = SUBri
		case 7:
			o = CMPri
		default:
			return fail("unsupported group-1 ext")
		}
		var v int64
		if op == 0x83 {
			v, ok = imm8()
		} else {
			v, ok = imm32()
		}
		if !ok {
			return fail("truncated imm")
		}
		inst.Op = o
		inst.R1 = rm
		inst.SetImm(v)
		return inst, p, nil
	case op == 0xC1:
		reg, isReg, rm, _, ok := parseModRM()
		if !ok || !isReg {
			return fail("bad shift")
		}
		var o Op
		switch reg {
		case 4:
			o = SHLri
		case 5:
			o = SHRri
		default:
			return fail("unsupported shift ext")
		}
		v, ok := imm8()
		if !ok {
			return fail("truncated imm8")
		}
		inst.Op = o
		inst.R1 = rm
		inst.SetImm(v & 63)
		return inst, p, nil
	case op == 0xEB:
		v, ok := imm8()
		if !ok {
			return fail("truncated rel8")
		}
		inst.Op = JMP
		inst.SetTargetAddr(relTarget(v))
		return inst, p, nil
	case op == 0xE9:
		v, ok := imm32()
		if !ok {
			return fail("truncated rel32")
		}
		inst.Op = JMP
		inst.SetTargetAddr(relTarget(v))
		return inst, p, nil
	case op >= 0x70 && op <= 0x7F:
		v, ok := imm8()
		if !ok {
			return fail("truncated rel8")
		}
		inst.Op = JCC
		inst.Cc = Cond(op - 0x70)
		inst.SetTargetAddr(relTarget(v))
		return inst, p, nil
	case op == 0xE8:
		v, ok := imm32()
		if !ok {
			return fail("truncated rel32")
		}
		inst.Op = CALL
		inst.SetTargetAddr(relTarget(v))
		return inst, p, nil
	case op == 0xFF:
		reg, isReg, rm, m, ok := parseModRM()
		if !ok {
			return fail("bad FF form")
		}
		switch reg {
		case 2:
			if isReg {
				inst.Op = CALLr
				inst.R1 = rm
			} else {
				inst.Op = CALLm
				setMem(m)
			}
		case 4:
			if isReg {
				inst.Op = JMPr
				inst.R1 = rm
			} else {
				inst.Op = JMPm
				setMem(m)
			}
		default:
			return fail("unsupported FF ext")
		}
		return inst, p, nil
	case op == 0xC3:
		if repz {
			inst.Op = REPZRET
		} else {
			inst.Op = RET
		}
		return inst, p, nil
	case op >= 0x50 && op <= 0x57:
		inst.Op = PUSH
		inst.R1 = Reg(op - 0x50 | rexBb<<3)
		return inst, p, nil
	case op >= 0x58 && op <= 0x5F:
		inst.Op = POP
		inst.R1 = Reg(op - 0x58 | rexBb<<3)
		return inst, p, nil
	case op == 0x90 && !hasRex:
		inst.Op = NOP
		inst.SetImm(int64(p)) // prefixes (e.g. 0x66) already counted
		return inst, p, nil
	case op == 0xF4:
		inst.Op = HLT
		return inst, p, nil
	case op == 0x0F:
		if !need(1) {
			return fail("truncated 0F")
		}
		op2 := code[p]
		p++
		switch {
		case op2 == 0xB6:
			reg, isReg, _, m, ok := parseModRM()
			if !ok || isReg {
				return fail("bad movzbq")
			}
			return memInst(MOVZXBrm, reg, m)
		case op2 == 0xAF:
			reg, isReg, rm, _, ok := parseModRM()
			if !ok || !isReg {
				return fail("bad imul")
			}
			inst.Op = IMULrr
			inst.R1 = Reg(reg | rexR<<3)
			inst.R2 = rm
			return inst, p, nil
		case op2 >= 0x80 && op2 <= 0x8F:
			v, ok := imm32()
			if !ok {
				return fail("truncated rel32")
			}
			inst.Op = JCC
			inst.Cc = Cond(op2 - 0x80)
			inst.SetTargetAddr(relTarget(v))
			return inst, p, nil
		case op2 == 0x0B:
			inst.Op = UD2
			return inst, p, nil
		case op2 == 0x1F:
			// Multi-byte NOP: 0F 1F /0 with arbitrary memory operand.
			_, isReg, _, _, ok := parseModRM()
			if !ok || isReg {
				return fail("bad long nop")
			}
			inst.Op = NOP
			inst.SetImm(int64(p))
			return inst, p, nil
		}
		return fail("unknown 0F opcode")
	}
	return fail("unknown opcode")
}
