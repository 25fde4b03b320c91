package isa

import (
	"fmt"
	"strings"
)

// FormatMem renders a memory operand in AT&T syntax.
func FormatMem(m Mem) string {
	if m.RIP {
		return fmt.Sprintf("%#x(%%rip)", m.Disp)
	}
	var sb strings.Builder
	if m.Disp != 0 {
		if m.Disp < 0 {
			fmt.Fprintf(&sb, "-%#x", -int64(m.Disp))
		} else {
			fmt.Fprintf(&sb, "%#x", m.Disp)
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

// Format renders the instruction in AT&T syntax. SymName, if non-nil, maps
// branch-target addresses to symbolic names for readability.
func (i *Inst) Format(symName func(uint64) string) string {
	target := func() string {
		if symName != nil {
			if n := symName(i.TargetAddr()); n != "" {
				return n
			}
		}
		return fmt.Sprintf("%#x", i.TargetAddr())
	}
	m := i.Mnemonic()
	switch i.Op {
	case MOVrr, ADDrr, SUBrr, XORrr, CMPrr, TESTrr, IMULrr:
		return fmt.Sprintf("%s %s, %s", m, i.R2.ATT(), i.R1.ATT())
	case MOVri, MOVabs, ADDri, SUBri, ANDri, SHLri, SHRri, CMPri:
		return fmt.Sprintf("%s $%#x, %s", m, i.Imm(), i.R1.ATT())
	case MOVrm, MOVZXBrm, MOVSXDrm, LEA:
		return fmt.Sprintf("%s %s, %s", m, FormatMem(i.M), i.R1.ATT())
	case MOVmr:
		return fmt.Sprintf("%s %s, %s", m, i.R1.ATT(), FormatMem(i.M))
	case JMP, JCC, CALL:
		return fmt.Sprintf("%s %s", m, target())
	case JMPr, CALLr:
		return fmt.Sprintf("%s *%s", m, i.R1.ATT())
	case JMPm, CALLm:
		return fmt.Sprintf("%s *%s", m, FormatMem(i.M))
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

// String implements fmt.Stringer.
func (i *Inst) String() string { return i.Format(nil) }
