package vm

import (
	"strings"
	"testing"

	"gobolt/internal/cfi"
	"gobolt/internal/isa"
)

// unwindFixture is a machine with no code, only what unwind reads: a
// stack, a thrower frame described by the given CFI program (FDE at
// 0x1000, no LSDA) whose return address lands in a catcher frame (FDE at
// 0x2000) with a landing pad at 0x2080.
func unwindFixture(thrower ...cfi.PCInst) *Machine {
	lsda, off := cfi.EncodeLSDA(nil, &cfi.LSDA{CallSites: []cfi.CallSite{
		{Start: 0, Len: 0x20, LandingPad: 0x2080, Action: 1},
	}})
	m := &Machine{
		stack:    make([]byte, stackSize),
		lsdaData: lsda,
		lsdaBase: 0x3000,
		fdes: []cfi.FDE{
			{Start: 0x1000, Len: 0x100, Insts: thrower},
			{Start: 0x2000, Len: 0x100, LSDA: 0x3000 + uint64(off)},
		},
	}
	m.Regs[isa.RSP] = stackBase + stackSize - 256
	return m
}

func TestUnwindRestoresSavedRegisters(t *testing.T) {
	m := unwindFixture(
		cfi.PCInst{PC: 0, Inst: cfi.Inst{Kind: cfi.OpDefCfaOffset, Off: 32}},
		cfi.PCInst{PC: 0, Inst: cfi.Inst{Kind: cfi.OpOffset, Reg: uint8(isa.R12), Off: -16}},
		cfi.PCInst{PC: 0, Inst: cfi.Inst{Kind: cfi.OpOffset, Reg: uint8(isa.RBX), Off: -24}},
	)
	cfa := m.Regs[isa.RSP] + 32
	for slot, v := range map[uint64]uint64{cfa - 8: 0x2010, cfa - 16: 0xC12, cfa - 24: 0xB3} {
		if err := m.write(slot, v, 8); err != nil {
			t.Fatal(err)
		}
	}
	lp, err := m.unwind(0x1010)
	if err != nil {
		t.Fatal(err)
	}
	if lp != 0x2080 {
		t.Errorf("landing pad %#x, want 0x2080", lp)
	}
	if m.Regs[isa.RBX] != 0xB3 || m.Regs[isa.R12] != 0xC12 || m.Regs[isa.RSP] != cfa {
		t.Errorf("after unwinding: rbx=%#x r12=%#x rsp=%#x, want 0xb3 0xc12 %#x",
			m.Regs[isa.RBX], m.Regs[isa.R12], m.Regs[isa.RSP], cfa)
	}
}

// TestUnwindRestoreOrder: registers are restored in ascending register
// order, so with two unreadable slots the error always names the lower
// register (map order used to pick either).
func TestUnwindRestoreOrder(t *testing.T) {
	m := unwindFixture(
		cfi.PCInst{PC: 0, Inst: cfi.Inst{Kind: cfi.OpOffset, Reg: uint8(isa.R12), Off: 1 << 30}},
		cfi.PCInst{PC: 0, Inst: cfi.Inst{Kind: cfi.OpOffset, Reg: uint8(isa.RBX), Off: 1 << 30}},
	)
	_, err := m.unwind(0x1010)
	if err == nil || !strings.Contains(err.Error(), "restoring r3:") {
		t.Fatalf("unwind error %v, want the failure restoring r3", err)
	}
}

// TestUnwindRejectsUnknownRegisters: an FDE may name DWARF column 16
// (cfi.State tracks it) but the machine has sixteen registers; using it
// as the CFA register or restoring it is an error, not an index panic.
func TestUnwindRejectsUnknownRegisters(t *testing.T) {
	for _, tc := range []struct {
		name string
		inst cfi.Inst
		want string
	}{
		{"cfa", cfi.Inst{Kind: cfi.OpDefCfa, Reg: isa.NumRegs, Off: 8}, "CFA register r16"},
		{"saved", cfi.Inst{Kind: cfi.OpOffset, Reg: isa.NumRegs, Off: -16}, "saved register r16"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := unwindFixture(cfi.PCInst{PC: 0, Inst: tc.inst})
			_, err := m.unwind(0x1010)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("unwind error %v, want one naming the %s", err, tc.want)
			}
		})
	}
}
