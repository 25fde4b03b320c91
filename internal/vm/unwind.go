package vm

import (
	"fmt"

	"gobolt/internal/cfi"
	"gobolt/internal/isa"
)

// unwind implements the exception runtime: starting from the return
// address of the `call __throw` site, it walks frames using the binary's
// CFI, restoring callee-saved registers from their spill slots, until a
// frame's LSDA covers the faulting call site; it then returns the landing
// pad address. This is the machinery that makes CFI load-bearing: if the
// rewriter emits stale CFI or fails to update the LSDA after moving
// blocks, unwinding lands in the weeds and tests fail.
//
// Convention: the caller (Run) has NOT pushed the __throw return address;
// retAddr is the address after the call instruction and RSP is still the
// thrower's call-site RSP.
func (m *Machine) unwind(retAddr uint64) (uint64, error) {
	pc := retAddr
	for depth := 0; depth < 1024; depth++ {
		fde, ok := cfi.FindFDE(m.fdes, pc-1)
		if !ok {
			return 0, fmt.Errorf("vm: unwind: no FDE for %#x", pc-1)
		}
		off := uint32(pc - 1 - fde.Start)
		state, err := fde.Evaluate(off)
		if err != nil {
			return 0, fmt.Errorf("vm: unwind at %#x: %w", pc, err)
		}
		if state.CfaReg >= isa.NumRegs {
			return 0, fmt.Errorf("vm: unwind at %#x: CFA register r%d does not exist", pc, state.CfaReg)
		}
		cfa := m.Regs[state.CfaReg] + uint64(int64(state.CfaOff))

		// Does this frame handle the exception?
		if fde.LSDA != 0 {
			var lsda cfi.LSDA
			if err := lsda.Decode(m.lsdaData, uint32(fde.LSDA-m.lsdaBase)); err != nil {
				return 0, fmt.Errorf("vm: unwind: %w", err)
			}
			if lp, _, ok := lsda.Lookup(off); ok {
				// Enter the landing pad in this frame. The pad's first
				// instruction re-establishes RSP from RBP, so only the
				// registers of *popped* frames needed restoring.
				return lp, nil
			}
		}

		// Pop this frame: restore its saved registers, move to caller.
		for reg := uint8(0); reg < cfi.NumRegs; reg++ {
			slot, saved := state.SavedAt(reg)
			if !saved {
				continue
			}
			if reg >= isa.NumRegs {
				return 0, fmt.Errorf("vm: unwind at %#x: saved register r%d does not exist", pc, reg)
			}
			v, err := m.read(cfa+uint64(int64(slot)), 8)
			if err != nil {
				return 0, fmt.Errorf("vm: unwind: restoring r%d: %w", reg, err)
			}
			m.Regs[reg] = v
		}
		ra, err := m.read(cfa-8, 8)
		if err != nil {
			return 0, fmt.Errorf("vm: unwind: return address: %w", err)
		}
		m.Regs[isa.RSP] = cfa
		pc = ra
	}
	return 0, fmt.Errorf("vm: unwind: no handler found (stack exhausted)")
}
