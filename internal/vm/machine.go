// Package vm executes the toolchain's ELF binaries. It stands in for the
// paper's production hardware: it interprets the x86-64 subset with full
// flag semantics, exposes retirement counters, and unwinds exceptions
// using the binary's CFI — so a rewriter that corrupts frame information
// breaks programs at runtime, exactly as it would on real hardware.
//
// The machine is the CPU and nothing more: it keeps no branch history and
// predicts no branch. Its observers are Tracers — the sampling PMU with
// its LBR ring (internal/perf), the microarchitecture model with its
// predictor (internal/uarch) — and TeeTracer lets several watch one run.
package vm

import (
	"fmt"
	"sort"

	"gobolt/internal/cfi"
	"gobolt/internal/elfx"
	"gobolt/internal/isa"
)

// BranchKind classifies a control transfer for tracing and profiling.
type BranchKind uint8

// Branch kinds.
const (
	BrCond BranchKind = iota
	BrUncond
	BrIndirect
	BrCall
	BrIndCall
	BrRet
)

// Tracer observes execution; any method may be a no-op. Inst comes before
// the instruction at addr executes, Branch and Mem while it does.
type Tracer interface {
	Inst(addr uint64, size uint8)
	Branch(from, to uint64, taken bool, kind BranchKind)
	Mem(addr uint64, size uint8, write bool)
}

// Counters accumulates retirement statistics.
type Counters struct {
	Instructions uint64
	Branches     uint64 // conditional branches executed
	TakenBranch  uint64 // taken conditional branches
	Calls        uint64
	Returns      uint64
	Loads        uint64
	Stores       uint64
	Throws       uint64
}

// StopReason reports why Run returned.
type StopReason int

// Stop reasons.
const (
	StopHalt StopReason = iota
	StopBudget
)

// decoded is one pre-decoded instruction with its successors linked, so
// Run follows indices instead of looking every address up: fall says the
// next entry of Machine.insts starts where this one ends, and target is
// one plus the index of a direct jmp/jcc/call's destination. Run fills
// target the first time the transfer is taken (see linkTarget); it is 0
// until then, and while the destination is no decoded instruction start.
type decoded struct {
	inst   isa.Inst // its Size is the decoded length
	fall   bool
	target int32
}

type codeSection struct {
	base uint64
	end  uint64
	idx  []int32 // byte offset -> one plus the index into insts, 0 = not an instruction start
}

const (
	stackBase = uint64(0x7F0000000000)
	stackSize = uint64(1 << 20)
)

// Machine is one virtual CPU plus its loaded program image.
type Machine struct {
	Regs [16]uint64
	rip  uint64
	zf   bool
	sf   bool
	of   bool
	cf   bool
	C    Counters

	mem     []byte // image slab
	memBase uint64
	stack   []byte
	halted  bool

	insts    []decoded
	sections []codeSection
	lastSect int

	fdes     []cfi.FDE
	lsdaData []byte
	lsdaBase uint64

	throwAddr uint64
	file      *elfx.File

	tracer Tracer
}

// New loads an executable into a fresh machine.
func New(f *elfx.File) (*Machine, error) {
	m := &Machine{file: f}

	// Map allocatable sections into one slab.
	var lo, hi uint64
	first := true
	for _, s := range f.Sections {
		if s.Flags&elfx.SHFAlloc == 0 || s.Size() == 0 {
			continue
		}
		if first || s.Addr < lo {
			lo = s.Addr
		}
		if first || s.Addr+s.Size() > hi {
			hi = s.Addr + s.Size()
		}
		first = false
	}
	if first {
		return nil, fmt.Errorf("vm: no loadable sections")
	}
	if hi-lo > 1<<31 {
		return nil, fmt.Errorf("vm: image span too large (%d bytes)", hi-lo)
	}
	m.memBase = lo
	m.mem = make([]byte, hi-lo)
	for _, s := range f.Sections {
		if s.Flags&elfx.SHFAlloc == 0 {
			continue
		}
		copy(m.mem[s.Addr-lo:], s.Data)
	}
	m.stack = make([]byte, stackSize)

	// Pre-decode executable sections using function symbol boundaries.
	if err := m.decodeCode(); err != nil {
		return nil, err
	}

	// Frame and exception metadata.
	if fs := f.Section(cfi.FrameSectionName); fs != nil {
		fdes, err := cfi.DecodeFrames(fs.Data)
		if err != nil {
			return nil, fmt.Errorf("vm: %w", err)
		}
		m.fdes = fdes
	}
	if ls := f.Section(cfi.LSDASectionName); ls != nil {
		m.lsdaData = ls.Data
		m.lsdaBase = ls.Addr
	}
	if sym, ok := f.SymbolByName("__throw"); ok {
		m.throwAddr = sym.Value
	}

	m.rip = f.Entry
	m.Regs[isa.RSP] = stackBase + stackSize - 128
	return m, nil
}

// decodeCode linearly disassembles every function body (symbol-delimited)
// in every executable section, linking each instruction to the one that
// follows it in memory.
func (m *Machine) decodeCode() error {
	var code uint64
	for _, s := range m.file.Sections {
		if s.Flags&elfx.SHFExecinstr == 0 || s.Size() == 0 {
			continue
		}
		m.sections = append(m.sections, codeSection{
			base: s.Addr, end: s.Addr + s.Size(), idx: make([]int32, s.Size()),
		})
		code += s.Size()
	}
	// The toolchain's instructions average 4.7-4.8 bytes on every preset,
	// so a quarter of the code bytes holds them all without regrowth.
	m.insts = make([]decoded, 0, code/4)
	sort.Slice(m.sections, func(i, j int) bool { return m.sections[i].base < m.sections[j].base })

	var prevEnd uint64 // end address of the last decoded instruction
	for _, sym := range m.file.FuncSymbols() {
		si := m.sectionFor(sym.Value)
		if si < 0 {
			continue
		}
		cs := &m.sections[si]
		sec := m.file.SectionFor(sym.Value)
		off := sym.Value - sec.Addr
		end := off + sym.Size
		if end > sec.Size() {
			return fmt.Errorf("vm: symbol %s overruns section", sym.Name)
		}
		pos := off
		for pos < end {
			addr := sec.Addr + pos
			if cs.idx[addr-cs.base] != 0 {
				break // already decoded (alias symbol)
			}
			if len(m.insts) > 0 && prevEnd == addr {
				m.insts[len(m.insts)-1].fall = true
			}
			m.insts = append(m.insts, decoded{})
			d := &m.insts[len(m.insts)-1]
			n, err := isa.Decode(&d.inst, sec.Data[pos:end], addr)
			if err != nil {
				return fmt.Errorf("vm: decoding %s+%#x: %w", sym.Name, pos-off, err)
			}
			cs.idx[addr-cs.base] = int32(len(m.insts))
			pos += uint64(n)
			prevEnd = addr + uint64(n)
		}
	}
	return nil
}

// sectionFor returns the code section index containing addr, or -1.
func (m *Machine) sectionFor(addr uint64) int {
	if m.lastSect < len(m.sections) {
		cs := &m.sections[m.lastSect]
		if addr >= cs.base && addr < cs.end {
			return m.lastSect
		}
	}
	for i := range m.sections {
		if addr >= m.sections[i].base && addr < m.sections[i].end {
			m.lastSect = i
			return i
		}
	}
	return -1
}

// lookup returns one plus the index of the instruction starting at
// addr, or 0 when no decoded instruction starts there.
func (m *Machine) lookup(addr uint64) int32 {
	si := m.sectionFor(addr)
	if si < 0 {
		return 0
	}
	cs := &m.sections[si]
	return cs.idx[addr-cs.base]
}

// linkTarget returns the index of the instruction at d's direct
// destination, resolving it on first use, or -1 when no decoded
// instruction starts there. Resolving when a transfer first runs, not in
// decodeCode, keeps New from looking up every branch target of the image
// when a run executes few of them.
func (m *Machine) linkTarget(d *decoded) int {
	if d.target == 0 {
		d.target = m.lookup(d.inst.TargetAddr())
	}
	return int(d.target) - 1
}

// fetch returns the index of the decoded instruction at addr.
func (m *Machine) fetch(addr uint64) (int, error) {
	id := m.lookup(addr)
	if id == 0 {
		if m.sectionFor(addr) < 0 {
			return 0, fmt.Errorf("vm: execute at unmapped address %#x", addr)
		}
		return 0, fmt.Errorf("vm: execute at non-instruction address %#x", addr)
	}
	return int(id - 1), nil
}

// SetTracer installs an execution observer (nil to remove).
func (m *Machine) SetTracer(t Tracer) { m.tracer = t }

// Halted reports whether the program has executed HLT.
func (m *Machine) Halted() bool { return m.halted }

// Result returns the conventional exit value (RAX).
func (m *Machine) Result() uint64 { return m.Regs[isa.RAX] }

// traceTaken notifies the tracer of a taken transfer.
func (m *Machine) traceTaken(from, to uint64, kind BranchKind) {
	if m.tracer != nil {
		m.tracer.Branch(from, to, true, kind)
	}
}

// read8 loads a byte from the guest address space.
func (m *Machine) read(addr uint64, n int) (uint64, error) {
	var b []byte
	switch {
	case addr >= stackBase && addr+uint64(n) <= stackBase+stackSize:
		b = m.stack[addr-stackBase:]
	case addr >= m.memBase && addr+uint64(n) <= m.memBase+uint64(len(m.mem)):
		b = m.mem[addr-m.memBase:]
	default:
		return 0, fmt.Errorf("vm: read of %d bytes at unmapped %#x", n, addr)
	}
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

func (m *Machine) write(addr uint64, v uint64, n int) error {
	var b []byte
	switch {
	case addr >= stackBase && addr+uint64(n) <= stackBase+stackSize:
		b = m.stack[addr-stackBase:]
	case addr >= m.memBase && addr+uint64(n) <= m.memBase+uint64(len(m.mem)):
		b = m.mem[addr-m.memBase:]
	default:
		return fmt.Errorf("vm: write of %d bytes at unmapped %#x", n, addr)
	}
	for i := 0; i < n; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return nil
}

// push/pop with the guest stack.
func (m *Machine) push(v uint64) error {
	m.Regs[isa.RSP] -= 8
	return m.write(m.Regs[isa.RSP], v, 8)
}

func (m *Machine) pop() (uint64, error) {
	v, err := m.read(m.Regs[isa.RSP], 8)
	m.Regs[isa.RSP] += 8
	return v, err
}

// TeeTracer fans one trace out to multiple observers.
type TeeTracer []Tracer

// Inst implements Tracer.
func (t TeeTracer) Inst(addr uint64, size uint8) {
	for _, x := range t {
		x.Inst(addr, size)
	}
}

// Branch implements Tracer.
func (t TeeTracer) Branch(from, to uint64, taken bool, kind BranchKind) {
	for _, x := range t {
		x.Branch(from, to, taken, kind)
	}
}

// Mem implements Tracer.
func (t TeeTracer) Mem(addr uint64, size uint8, write bool) {
	for _, x := range t {
		x.Mem(addr, size, write)
	}
}
