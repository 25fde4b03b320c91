package vm

import (
	"fmt"

	"gobolt/internal/isa"
)

// effAddr computes the effective address of in's memory operand; a
// RIP-relative one holds its address already.
func (m *Machine) effAddr(in *isa.Inst) uint64 {
	mem := &in.M
	if mem.IsRIP() {
		return in.TargetAddr()
	}
	addr := uint64(in.Disp())
	if mem.Base != isa.NoReg {
		addr += m.Regs[mem.Base]
	}
	if mem.Index != isa.NoReg {
		addr += m.Regs[mem.Index] * uint64(mem.Scale)
	}
	return addr
}

func (m *Machine) setFlagsAdd(a, b, r uint64) {
	m.zf = r == 0
	m.sf = int64(r) < 0
	m.cf = r < a
	m.of = (a^r)&(b^r)>>63 != 0
}

func (m *Machine) setFlagsSub(a, b, r uint64) {
	m.zf = r == 0
	m.sf = int64(r) < 0
	m.cf = a < b
	m.of = (a^b)&(a^r)>>63 != 0
}

func (m *Machine) setFlagsLogic(r uint64) {
	m.zf = r == 0
	m.sf = int64(r) < 0
	m.cf = false
	m.of = false
}

// cond evaluates a condition code against current flags.
func (m *Machine) cond(c isa.Cond) (bool, error) {
	switch c {
	case isa.CondE:
		return m.zf, nil
	case isa.CondNE:
		return !m.zf, nil
	case isa.CondL:
		return m.sf != m.of, nil
	case isa.CondGE:
		return m.sf == m.of, nil
	case isa.CondLE:
		return m.zf || m.sf != m.of, nil
	case isa.CondG:
		return !m.zf && m.sf == m.of, nil
	case isa.CondB:
		return m.cf, nil
	case isa.CondAE:
		return !m.cf, nil
	case isa.CondBE:
		return m.cf || m.zf, nil
	case isa.CondA:
		return !m.cf && !m.zf, nil
	case isa.CondS:
		return m.sf, nil
	case isa.CondNS:
		return !m.sf, nil
	case isa.CondO:
		return m.of, nil
	case isa.CondNO:
		return !m.of, nil
	}
	return false, fmt.Errorf("vm: unsupported condition %v", c)
}

// Run executes up to budget instructions (0 = unlimited) and returns why
// it stopped. Errors indicate guest faults (wild jumps, unmapped memory,
// unhandled exceptions) — i.e., rewriter bugs.
//
// Run looks m.rip up only for its first instruction and after indirect
// transfers, returns, unwinds and direct transfers to no decoded
// instruction; otherwise it follows the decoded links. Either way it reaches the same
// instruction, and a lookup that fails does so just before that
// instruction would run.
func (m *Machine) Run(budget uint64) (StopReason, error) {
	executed := uint64(0)
	cur := -1 // index of the instruction at m.rip, -1 = look it up
	for !m.halted {
		if budget != 0 && executed >= budget {
			return StopBudget, nil
		}
		if cur < 0 {
			var err error
			if cur, err = m.fetch(m.rip); err != nil {
				return StopHalt, err
			}
		}
		d := &m.insts[cur]
		in := &d.inst
		pc := m.rip
		next := pc + uint64(in.Size)
		m.C.Instructions++
		executed++
		if m.tracer != nil {
			m.tracer.Inst(pc, in.Size)
		}

		switch in.Op {
		case isa.MOVrr:
			m.Regs[in.R1] = m.Regs[in.R2]
		case isa.MOVri, isa.MOVabs:
			m.Regs[in.R1] = uint64(in.Imm())
		case isa.MOVrm, isa.MOVZXBrm, isa.MOVSXDrm:
			addr := m.effAddr(in)
			size := 8
			switch in.Op {
			case isa.MOVZXBrm:
				size = 1
			case isa.MOVSXDrm:
				size = 4
			}
			v, err := m.read(addr, size)
			if err != nil {
				return StopHalt, err
			}
			if in.Op == isa.MOVSXDrm {
				v = uint64(int64(int32(v)))
			}
			m.Regs[in.R1] = v
			m.C.Loads++
			if m.tracer != nil {
				m.tracer.Mem(addr, uint8(size), false)
			}
		case isa.MOVmr:
			addr := m.effAddr(in)
			if err := m.write(addr, m.Regs[in.R1], 8); err != nil {
				return StopHalt, err
			}
			m.C.Stores++
			if m.tracer != nil {
				m.tracer.Mem(addr, 8, true)
			}
		case isa.LEA:
			m.Regs[in.R1] = m.effAddr(in)
		case isa.ADDrr:
			a, b := m.Regs[in.R1], m.Regs[in.R2]
			r := a + b
			m.Regs[in.R1] = r
			m.setFlagsAdd(a, b, r)
		case isa.ADDri:
			a, b := m.Regs[in.R1], uint64(in.Imm())
			r := a + b
			m.Regs[in.R1] = r
			m.setFlagsAdd(a, b, r)
		case isa.SUBrr:
			a, b := m.Regs[in.R1], m.Regs[in.R2]
			r := a - b
			m.Regs[in.R1] = r
			m.setFlagsSub(a, b, r)
		case isa.SUBri:
			a, b := m.Regs[in.R1], uint64(in.Imm())
			r := a - b
			m.Regs[in.R1] = r
			m.setFlagsSub(a, b, r)
		case isa.IMULrr:
			r := m.Regs[in.R1] * m.Regs[in.R2]
			m.Regs[in.R1] = r
			m.setFlagsLogic(r) // simplified: defined zf/sf, cleared cf/of
		case isa.XORrr:
			r := m.Regs[in.R1] ^ m.Regs[in.R2]
			m.Regs[in.R1] = r
			m.setFlagsLogic(r)
		case isa.ANDri:
			r := m.Regs[in.R1] & uint64(in.Imm())
			m.Regs[in.R1] = r
			m.setFlagsLogic(r)
		case isa.SHLri:
			r := m.Regs[in.R1] << uint(in.Imm())
			m.Regs[in.R1] = r
			m.setFlagsLogic(r)
		case isa.SHRri:
			r := m.Regs[in.R1] >> uint(in.Imm())
			m.Regs[in.R1] = r
			m.setFlagsLogic(r)
		case isa.CMPrr:
			a, b := m.Regs[in.R1], m.Regs[in.R2]
			m.setFlagsSub(a, b, a-b)
		case isa.CMPri:
			a, b := m.Regs[in.R1], uint64(in.Imm())
			m.setFlagsSub(a, b, a-b)
		case isa.TESTrr:
			m.setFlagsLogic(m.Regs[in.R1] & m.Regs[in.R2])
		case isa.JMP:
			m.traceTaken(pc, in.TargetAddr(), BrUncond)
			m.rip = in.TargetAddr()
			cur = m.linkTarget(d)
			continue
		case isa.JCC:
			taken, err := m.cond(in.Cc)
			if err != nil {
				return StopHalt, err
			}
			m.C.Branches++
			if taken {
				m.C.TakenBranch++
				m.traceTaken(pc, in.TargetAddr(), BrCond)
				m.rip = in.TargetAddr()
				cur = m.linkTarget(d)
				continue
			}
			if m.tracer != nil {
				m.tracer.Branch(pc, next, false, BrCond)
			}
		case isa.JMPr:
			m.traceTaken(pc, m.Regs[in.R1], BrIndirect)
			m.rip = m.Regs[in.R1]
			cur = -1
			continue
		case isa.JMPm:
			addr := m.effAddr(in)
			v, err := m.read(addr, 8)
			if err != nil {
				return StopHalt, err
			}
			m.C.Loads++
			if m.tracer != nil {
				m.tracer.Mem(addr, 8, false)
			}
			m.traceTaken(pc, v, BrIndirect)
			m.rip = v
			cur = -1
			continue
		case isa.CALL, isa.CALLr, isa.CALLm:
			var target uint64
			kind := BrCall
			link := -1 // index of the instruction at target, -1 = look it up
			switch in.Op {
			case isa.CALL:
				target = in.TargetAddr()
				link = m.linkTarget(d)
			case isa.CALLr:
				target = m.Regs[in.R1]
				kind = BrIndCall
			case isa.CALLm:
				addr := m.effAddr(in)
				v, err := m.read(addr, 8)
				if err != nil {
					return StopHalt, err
				}
				m.C.Loads++
				target = v
				kind = BrIndCall
			}
			if target == m.throwAddr && m.throwAddr != 0 {
				// __throw intercept: unwind instead of calling.
				m.C.Throws++
				lp, err := m.unwind(next)
				if err != nil {
					return StopHalt, err
				}
				m.traceTaken(pc, lp, BrUncond)
				m.rip = lp
				cur = -1
				continue
			}
			if err := m.push(next); err != nil {
				return StopHalt, err
			}
			m.C.Calls++
			m.traceTaken(pc, target, kind)
			m.rip = target
			cur = link
			continue
		case isa.RET, isa.REPZRET:
			v, err := m.pop()
			if err != nil {
				return StopHalt, err
			}
			m.C.Returns++
			m.traceTaken(pc, v, BrRet)
			m.rip = v
			cur = -1
			continue
		case isa.PUSH:
			if err := m.push(m.Regs[in.R1]); err != nil {
				return StopHalt, err
			}
			m.C.Stores++
		case isa.POP:
			v, err := m.pop()
			if err != nil {
				return StopHalt, err
			}
			m.Regs[in.R1] = v
			m.C.Loads++
		case isa.NOP:
		case isa.UD2:
			return StopHalt, fmt.Errorf("vm: ud2 trap at %#x", pc)
		case isa.HLT:
			m.halted = true
			return StopHalt, nil
		default:
			return StopHalt, fmt.Errorf("vm: unimplemented op %v at %#x", in.Op, pc)
		}
		m.rip = next
		cur++
		if !d.fall {
			cur = -1
		}
	}
	return StopHalt, nil
}
