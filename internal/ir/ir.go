// Package ir defines MIR, the CFG-level intermediate representation the
// mini compiler consumes. MIR plays the role of "source code" in the
// paper's Figure 1 pipeline: workload generators produce MIR programs, the
// compiler (internal/cc) lowers them to machine code, and the compiler's
// PGO mode retrofits *source-keyed* profile data onto MIR — with exactly
// the context-insensitivity the paper's Figure 2 describes.
//
// MIR operates directly on physical registers under a simple convention:
// RDI/RSI carry arguments, RAX carries the return value, and values live
// across calls only in callee-saved registers or frame slots. Generators
// are responsible for producing convention-respecting programs; Validate
// checks structural invariants.
package ir

import (
	"fmt"
	"slices"

	"gobolt/internal/isa"
)

// Program is a whole source program: modules plus global data.
type Program struct {
	Modules []*Module
	Globals []*Global
}

// Module is one compilation unit.
type Module struct {
	Name string
	// Shared marks the simulated shared library: calls into it are routed
	// through PLT stubs unless the build uses LTO-style static linking.
	Shared bool
	Funcs  []*Func
}

// FuncRef plants a function's address into a global at a byte offset
// (function-pointer tables for indirect calls and dispatch).
type FuncRef struct {
	Off  uint32
	Name string
}

// Global is initialized data referenced by name.
type Global struct {
	Name     string
	Data     []byte
	Align    int
	Writable bool
	FuncRefs []FuncRef
}

// Func is a MIR function.
type Func struct {
	Name   string
	File   string // source file for debug info
	Line   int32  // first source line
	Blocks []*Block

	// Frame shape.
	FrameSlots int       // number of 8-byte locals (rbp-relative)
	SavedRegs  []isa.Reg // callee-saved registers pushed in the prologue

	// RepzRet makes returns use the legacy-AMD `repz retq` form.
	RepzRet bool
	// Global controls symbol binding.
	Global bool

	mod *Module // set by Finalize
}

// Module returns the owning module (after Program.Finalize).
func (f *Func) Module() *Module { return f.mod }

// Block is a basic block: straight-line ops plus one terminator.
type Block struct {
	Index int
	Ops   []Op
	Term  Term
	Line  int32
	// Cold is a generator hint recorded for test assertions; the compiler
	// and optimizer never read it.
	Cold bool
}

// OpKind enumerates non-terminator operations.
type OpKind uint8

// Operations.
const (
	OpMovImm       OpKind = iota // Dst = Imm
	OpMov                        // Dst = Src
	OpAdd                        // Dst += Src
	OpAddImm                     // Dst += Imm
	OpSub                        // Dst -= Src
	OpMul                        // Dst *= Src
	OpXor                        // Dst ^= Src
	OpAndImm                     // Dst &= Imm
	OpShlImm                     // Dst <<= Imm
	OpShrImm                     // Dst >>= Imm (logical)
	OpLoad                       // Dst = *(Sym + SymOff + Src*Scale); Src may be NoReg
	OpLoadByte                   // Dst = zero-extended byte at Sym + SymOff + Src*Scale
	OpStore                      // *(Sym + SymOff + Src*Scale) = Dst  (Dst is the value!)
	OpLoadLocal                  // Dst = frame slot Imm
	OpStoreLocal                 // frame slot Imm = Dst
	OpCall                       // call Callee; optional SpillReg, optional landing pad
	OpCallIndirect               // load ptr from Sym + Src*8, call it (via R11)
)

// Op is one MIR operation.
type Op struct {
	Kind   OpKind
	Dst    isa.Reg
	Src    isa.Reg
	Imm    int64
	Sym    string
	SymOff int64
	Scale  uint8

	// Call-specific fields.
	Callee string
	// SpillReg, when not NoReg, makes the compiler save/restore this
	// caller-saved register around the call with push/pop — the
	// "unnecessary caller-saved register spilling" that the frame-opts
	// pass removes when the register is dead (paper Table 1, pass 15).
	SpillReg isa.Reg
	// LandingPad, when >= 0, marks the call as an invoke whose exception
	// edge leads to that block.
	LandingPad int

	// Source coordinates. After inlining these remain the *callee's*
	// coordinates, which is what makes source-keyed PGO profiles merge
	// across inline copies (paper Figure 2). Finalize fills empty fields
	// from the enclosing function/block.
	File string
	Line int32
}

// TermKind enumerates block terminators.
type TermKind uint8

// Terminators.
const (
	TermJump         TermKind = iota // goto Then
	TermBranch                       // if CmpReg <Cc> (CmpReg2|CmpImm) goto Then else Else
	TermSwitch                       // jump table on IndexReg in [0, len(Targets))
	TermReturn                       // return (value already in RAX)
	TermTailCall                     // jmp Callee (frameless functions only)
	TermTailIndirect                 // jmp *(Sym + IndexReg*8) — an indirect tail call; makes the function non-simple for gobolt (paper §6.4)
	TermThrow                        // raise an exception (unwinds to nearest landing pad)
	TermExit                         // halt the machine (entry function only)
)

// Term is a block terminator.
type Term struct {
	Kind TermKind

	// TermBranch: compare CmpReg against CmpReg2 (when CmpUseReg) or
	// CmpImm, then branch on Cc. The explicit flag avoids the zero-value
	// register (RAX) silently meaning "register compare".
	Cc        isa.Cond
	CmpReg    isa.Reg
	CmpUseReg bool
	CmpReg2   isa.Reg
	CmpImm    int64
	Then      int
	Else      int

	// TermSwitch.
	IndexReg isa.Reg
	Targets  []int
	PIC      bool // PIC-style (offset) jump table vs absolute

	// TermTailCall.
	Callee string

	// LandingPad covers TermThrow raised inside an inlined invoke: the
	// throw call site inherits the surrounding invoke's landing pad.
	LandingPad int

	// Prob is the generator's intended probability of the Then edge.
	// It parameterizes input data generation and test oracles only; the
	// compiler must learn probabilities from profiles, never from here.
	Prob float64

	// Source coordinates; see Op.File.
	File string
	Line int32
}

// NewFunc returns a function with an allocated entry block.
func NewFunc(name, file string, line int32) *Func {
	f := &Func{Name: name, File: file, Line: line, Global: true}
	f.AddBlock()
	return f
}

// AddBlock appends and returns a new block.
func (f *Func) AddBlock() *Block {
	b := &Block{Index: len(f.Blocks), Line: f.Line}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Finalize wires back-pointers, assigns block indices, and normalizes
// source coordinates (empty op/term File inherits the function's File;
// zero Line inherits the block's Line).
func (p *Program) Finalize() {
	for _, m := range p.Modules {
		for _, f := range m.Funcs {
			f.mod = m
			f.Finalize()
		}
	}
}

// Finalize normalizes one function the way Program.Finalize does, for a
// pass that rewrote f after the program was finalized. It leaves f's
// module as it is.
func (f *Func) Finalize() {
	for i, b := range f.Blocks {
		b.Index = i
		if b.Line == 0 {
			b.Line = f.Line
		}
		for j := range b.Ops {
			if b.Ops[j].File == "" {
				b.Ops[j].File = f.File
			}
			if b.Ops[j].Line == 0 {
				b.Ops[j].Line = b.Line
			}
			if b.Ops[j].Kind != OpCall && b.Ops[j].LandingPad == 0 {
				// Zero value means "no landing pad" for non-calls.
				b.Ops[j].LandingPad = -1
			}
		}
		if b.Term.File == "" {
			b.Term.File = f.File
		}
		if b.Term.Line == 0 {
			b.Term.Line = b.Line
		}
		if b.Term.Kind != TermThrow && b.Term.LandingPad == 0 {
			b.Term.LandingPad = -1
		}
	}
}

// Clone returns a deep copy of f in f's module, for a pass that rewrites
// one function and must leave the program it came from unchanged.
func (f *Func) Clone() *Func {
	g := *f
	g.SavedRegs = slices.Clone(f.SavedRegs)
	g.Blocks = make([]*Block, len(f.Blocks))
	blocks := make([]Block, len(f.Blocks))
	for i, b := range f.Blocks {
		blocks[i] = *b
		blocks[i].Ops = slices.Clone(b.Ops)
		blocks[i].Term.Targets = slices.Clone(b.Term.Targets)
		g.Blocks[i] = &blocks[i]
	}
	return &g
}

// FuncByName finds a function anywhere in the program.
func (p *Program) FuncByName(name string) *Func {
	for _, m := range p.Modules {
		for _, f := range m.Funcs {
			if f.Name == name {
				return f
			}
		}
	}
	return nil
}

// Validate checks structural invariants of the whole program, which must
// have been finalized: a function Finalize never reached is an error.
func (p *Program) Validate() error {
	names := map[string]bool{}
	for _, g := range p.Globals {
		if names[g.Name] {
			return fmt.Errorf("ir: duplicate global %q", g.Name)
		}
		names[g.Name] = true
	}
	for _, m := range p.Modules {
		for _, f := range m.Funcs {
			if names[f.Name] {
				return fmt.Errorf("ir: duplicate symbol %q", f.Name)
			}
			names[f.Name] = true
			if f.mod != m {
				return fmt.Errorf("ir: func %s: not finalized (call Program.Finalize)", f.Name)
			}
			if err := p.validateFunc(f); err != nil {
				return fmt.Errorf("ir: func %s: %w", f.Name, err)
			}
		}
	}
	return nil
}

func (p *Program) validateFunc(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	checkTarget := func(i int) error {
		if i < 0 || i >= len(f.Blocks) {
			return fmt.Errorf("block target %d out of range", i)
		}
		return nil
	}
	for bi, b := range f.Blocks {
		for oi, op := range b.Ops {
			switch op.Kind {
			case OpCall:
				if op.Callee == "" {
					return fmt.Errorf("block %d op %d: call without callee", bi, oi)
				}
				if op.LandingPad == 0 {
					return fmt.Errorf("block %d op %d: entry block cannot be a landing pad", bi, oi)
				}
				if op.LandingPad > 0 {
					if err := checkTarget(op.LandingPad); err != nil {
						return err
					}
				}
				if op.SpillReg != isa.NoReg && !op.SpillReg.CallerSaved() {
					return fmt.Errorf("block %d op %d: spill of callee-saved %v", bi, oi, op.SpillReg)
				}
			case OpCallIndirect:
				if op.Sym == "" {
					return fmt.Errorf("block %d op %d: indirect call without table", bi, oi)
				}
			case OpLoad, OpLoadByte, OpStore:
				if op.Sym == "" {
					return fmt.Errorf("block %d op %d: memory op without symbol", bi, oi)
				}
			case OpLoadLocal, OpStoreLocal:
				if op.Imm < 0 || op.Imm >= int64(f.FrameSlots) {
					return fmt.Errorf("block %d op %d: frame slot %d out of range", bi, oi, op.Imm)
				}
			}
		}
		t := &b.Term
		switch t.Kind {
		case TermJump:
			if err := checkTarget(t.Then); err != nil {
				return err
			}
		case TermBranch:
			if err := checkTarget(t.Then); err != nil {
				return err
			}
			if err := checkTarget(t.Else); err != nil {
				return err
			}
		case TermSwitch:
			if len(t.Targets) == 0 {
				return fmt.Errorf("block %d: empty switch", bi)
			}
			for _, tg := range t.Targets {
				if err := checkTarget(tg); err != nil {
					return err
				}
			}
		case TermTailCall:
			if t.Callee == "" {
				return fmt.Errorf("block %d: tail call without callee", bi)
			}
			if f.FrameSlots > 0 || len(f.SavedRegs) > 0 {
				return fmt.Errorf("block %d: tail call from function with a frame", bi)
			}
		case TermTailIndirect:
			if t.Callee == "" { // Callee carries the table symbol here
				return fmt.Errorf("block %d: indirect tail call without table", bi)
			}
			if f.FrameSlots > 0 || len(f.SavedRegs) > 0 {
				return fmt.Errorf("block %d: indirect tail call from function with a frame", bi)
			}
		case TermReturn, TermThrow, TermExit:
		default:
			return fmt.Errorf("block %d: unknown terminator %d", bi, t.Kind)
		}
	}
	for _, r := range f.SavedRegs {
		if !r.CalleeSaved() {
			return fmt.Errorf("saved reg %v is not callee-saved", r)
		}
	}
	return nil
}

// Successors lists the control-flow successors of block b (excluding
// exception edges).
func (f *Func) Successors(b *Block) []int {
	switch b.Term.Kind {
	case TermJump:
		return []int{b.Term.Then}
	case TermBranch:
		return []int{b.Term.Then, b.Term.Else}
	case TermSwitch:
		return append([]int(nil), b.Term.Targets...)
	}
	return nil
}
