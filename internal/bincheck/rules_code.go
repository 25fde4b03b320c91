package bincheck

import (
	"encoding/binary"

	"gobolt/internal/isa"
)

// checkCode runs the control-flow rules over one fragment: direct
// control transfers must land on instruction boundaries of known
// fragments, and every jump-table entry must resolve into the owning
// function's fragments. It reads other fragments' boundary bits, so it
// runs only after every fragment is disassembled.
func (w *worker) checkCode(fr *fragment) {
	if fr.broken {
		return
	}
	for i := range fr.sites {
		s := &fr.sites[i]
		tf, ok := w.validTarget(s.target)
		if ok {
			continue
		}
		addr := fr.addr + uint64(s.off)
		if tf == nil {
			w.errorf("branch-target", fr.name, addr,
				"%s at %#x targets %#x, outside every known fragment", s.mnemonic(), addr, s.target)
		} else {
			w.errorf("branch-target", fr.name, addr,
				"%s at %#x targets %#x, inside %s but off the instruction stream", s.mnemonic(), addr, s.target, tf.name)
		}
	}
	for i := range fr.jumps {
		w.checkIndirectJump(fr, &fr.jumps[i])
	}
}

// jumpTable is a bounded jump table re-derived from the instruction
// stream: its address, entry width, and count.
type jumpTable struct {
	addr      uint64
	entrySize uint64
	n         uint64
	pic       bool
}

// target decodes entry e of the table from its raw bytes.
func (jt *jumpTable) target(data []byte, e uint64) uint64 {
	if jt.pic {
		v := binary.LittleEndian.Uint32(data[e*4:])
		return jt.addr + uint64(int64(int32(v)))
	}
	return binary.LittleEndian.Uint64(data[e*8:])
}

// deriveTable re-derives the jump table feeding the indirect jump that
// is instruction idx of fr (the newest entry of win), mirroring the
// loader's two lowering patterns (absolute and PIC, §3.2). The
// derivation is independent: it reads only the re-disassembled stream
// and the symbol table of the serialized output. When no bounded table
// matches, why says what broke the pattern.
func (c *checker) deriveTable(fr *fragment, win *window, idx int) (jt jumpTable, why string, ok bool) {
	in := &win.at(idx).inst

	findLea := func(reg isa.Reg, from int) (uint64, bool) {
		for k := from; k >= 0 && k > from-8; k-- {
			ia := win.at(k)
			r := &ia.inst
			if r.Op == isa.LEA && r.R1 == reg && r.M.RIP {
				return fr.addr + uint64(ia.off) + uint64(ia.size) + uint64(int64(r.M.Disp)), true
			}
			if r.Defs().Has(reg) {
				return 0, false
			}
		}
		return 0, false
	}

	switch in.Op {
	case isa.JMPm:
		if in.M.Base == isa.NoReg || in.M.Scale != 8 {
			return jt, "unrecognized memory-jump form", false
		}
		t, ok := findLea(in.M.Base, idx-1)
		if !ok {
			return jt, "no table-base lea in reach", false
		}
		jt.addr = t
	case isa.JMPr:
		if idx < 2 {
			return jt, "indirect jump with no context", false
		}
		add := &win.at(idx - 1).inst
		mov := &win.at(idx - 2).inst
		if add.Op != isa.ADDrr || add.R1 != in.R1 ||
			mov.Op != isa.MOVSXDrm || mov.R1 != in.R1 ||
			mov.M.Base != add.R2 || mov.M.Scale != 4 {
			return jt, "not a PIC jump-table pattern", false
		}
		t, ok := findLea(add.R2, idx-3)
		if !ok {
			return jt, "no PIC table-base lea in reach", false
		}
		jt.addr = t
		jt.pic = true
	default:
		return jt, "", false
	}

	sym, ok := c.objSyms[jt.addr]
	if !ok || sym.Size == 0 {
		return jt, "no data symbol bounds the table", false
	}
	jt.entrySize = 8
	if jt.pic {
		jt.entrySize = 4
	}
	jt.n = sym.Size / jt.entrySize
	if jt.n == 0 || jt.n > 4096 {
		return jt, "implausible table size", false
	}
	return jt, "", true
}

// checkIndirectJump validates every entry of the jump table feeding an
// indirect jump (see deriveTable).
func (w *worker) checkIndirectJump(fr *fragment, j *indirect) {
	addr := fr.addr + uint64(j.off)
	if !j.ok {
		// unbounded: in code the rewriter emitted itself, every indirect
		// jump must be a recognizable bounded jump table — anything else
		// was non-simple and should never have moved.
		if fr.reemitted && j.why != "" {
			w.warnf("jt-unbounded", fr.name, addr, "indirect jump at %#x: %s", addr, j.why)
		}
		return
	}
	sym := w.objSyms[j.jt.addr]
	tableAddr, entrySize, n := j.jt.addr, j.jt.entrySize, j.jt.n
	data, err := w.f.ReadAt(tableAddr, int(n*entrySize))
	if err != nil {
		w.errorf("jt-target", fr.name, addr,
			"jump table %s at %#x is unreadable: %v", sym.Name, tableAddr, err)
		return
	}
	for e := uint64(0); e < n; e++ {
		target := j.jt.target(data, e)
		tf, ok := w.validTarget(target)
		if !ok {
			w.errorf("jt-target", fr.name, tableAddr+e*entrySize,
				"jump table %s entry %d targets %#x, not an instruction boundary", sym.Name, e, target)
			continue
		}
		if tf.fn != fr.fn {
			w.errorf("jt-target", fr.name, tableAddr+e*entrySize,
				"jump table %s entry %d escapes to %s at %#x", sym.Name, e, tf.name, target)
		}
	}
}
