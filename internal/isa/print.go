package isa

import (
	"fmt"
	"strings"
)

// FormatMem renders memory operand m with displacement disp in AT&T
// syntax.
func FormatMem(m Mem, disp int64) string {
	if m.RIP {
		return fmt.Sprintf("%#x(%%rip)", disp)
	}
	var sb strings.Builder
	if disp != 0 {
		if disp < 0 {
			fmt.Fprintf(&sb, "-%#x", -disp)
		} else {
			fmt.Fprintf(&sb, "%#x", disp)
		}
	}
	sb.WriteByte('(')
	if m.Base != NoReg {
		sb.WriteString(m.Base.ATT())
	}
	if m.Index != NoReg {
		fmt.Fprintf(&sb, ",%s,%d", m.Index.ATT(), m.Scale)
	}
	sb.WriteByte(')')
	return sb.String()
}

// Format renders the instruction at address pc in AT&T syntax: a
// RIP-relative operand shows its displacement from the end of the
// instruction there, as a disassembler does. SymName, if non-nil, maps
// branch-target addresses to symbolic names for readability.
func (i *Inst) Format(pc uint64, symName func(uint64) string) string {
	target := func() string {
		if symName != nil {
			if n := symName(i.TargetAddr()); n != "" {
				return n
			}
		}
		return fmt.Sprintf("%#x", i.TargetAddr())
	}
	disp := i.Disp()
	if i.M.RIP {
		disp = int64(i.TargetAddr()) - int64(pc) - int64(InstLen(i, true))
	}
	m := i.Mnemonic()
	switch i.Op {
	case MOVrr, ADDrr, SUBrr, XORrr, CMPrr, TESTrr, IMULrr:
		return fmt.Sprintf("%s %s, %s", m, i.R2.ATT(), i.R1.ATT())
	case MOVri, MOVabs, ADDri, SUBri, ANDri, SHLri, SHRri, CMPri:
		return fmt.Sprintf("%s $%#x, %s", m, i.Imm(), i.R1.ATT())
	case MOVrm, MOVZXBrm, MOVSXDrm, LEA:
		return fmt.Sprintf("%s %s, %s", m, FormatMem(i.M, disp), i.R1.ATT())
	case MOVmr:
		return fmt.Sprintf("%s %s, %s", m, i.R1.ATT(), FormatMem(i.M, disp))
	case JMP, JCC, CALL:
		return fmt.Sprintf("%s %s", m, target())
	case JMPr, CALLr:
		return fmt.Sprintf("%s *%s", m, i.R1.ATT())
	case JMPm, CALLm:
		return fmt.Sprintf("%s *%s", m, FormatMem(i.M, disp))
	case PUSH, POP:
		return fmt.Sprintf("%s %s", m, i.R1.ATT())
	case NOP:
		if i.Imm() > 1 {
			return fmt.Sprintf("nop(%d)", i.Imm())
		}
		return "nop"
	default:
		return m
	}
}

// String implements fmt.Stringer, formatting i at address 0.
func (i *Inst) String() string { return i.Format(0, nil) }
