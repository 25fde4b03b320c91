package ir

import (
	"strings"
	"testing"

	"gobolt/internal/isa"
)

func validProgram() *Program {
	f := NewFunc("_start", "m.mir", 1)
	f.Blocks[0].Term = Term{Kind: TermExit}
	g := NewFunc("g", "m.mir", 5)
	b := g.AddBlock()
	g.Blocks[0].Term = Term{Kind: TermBranch, Cc: isa.CondE, CmpReg: isa.RAX, Then: b.Index, Else: 0}
	b.Term = Term{Kind: TermReturn}
	p := &Program{Modules: []*Module{{Name: "m", Funcs: []*Func{f, g}}}}
	p.Finalize()
	return p
}

func TestValidateAccepts(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadTargets(t *testing.T) {
	p := validProgram()
	p.Modules[0].Funcs[1].Blocks[0].Term.Then = 99
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range branch target accepted")
	}
}

func TestValidateRejectsDuplicateNames(t *testing.T) {
	p := validProgram()
	dup := NewFunc("g", "m.mir", 9)
	dup.Blocks[0].Term = Term{Kind: TermReturn}
	p.Modules[0].Funcs = append(p.Modules[0].Funcs, dup)
	if err := p.Validate(); err == nil {
		t.Fatal("duplicate function name accepted")
	}
}

func TestValidateRejectsFramedTailCall(t *testing.T) {
	p := validProgram()
	f := NewFunc("tc", "m.mir", 20)
	f.FrameSlots = 1
	f.Blocks[0].Term = Term{Kind: TermTailCall, Callee: "g"}
	p.Modules[0].Funcs = append(p.Modules[0].Funcs, f)
	p.Finalize()
	if err := p.Validate(); err == nil {
		t.Fatal("tail call from framed function accepted")
	}
}

// TestValidateRejectsUnfinalized: compilers read a program without
// finalizing it, so a function added after Finalize is reported by name.
func TestValidateRejectsUnfinalized(t *testing.T) {
	p := validProgram()
	f := NewFunc("late", "m.mir", 30)
	f.Blocks[0].Term = Term{Kind: TermReturn}
	p.Modules[0].Funcs = append(p.Modules[0].Funcs, f)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "late") {
		t.Fatalf("unfinalized function: Validate() = %v, want an error naming it", err)
	}
	p.Finalize()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsEntryLandingPad(t *testing.T) {
	p := validProgram()
	f := p.Modules[0].Funcs[1]
	f.Blocks[1].Ops = []Op{{Kind: OpCall, Callee: "g", SpillReg: isa.NoReg, LandingPad: 0}}
	if err := p.Validate(); err == nil {
		t.Fatal("entry-block landing pad accepted")
	}
}

func TestValidateRejectsBadSpill(t *testing.T) {
	p := validProgram()
	f := p.Modules[0].Funcs[1]
	f.Blocks[1].Ops = []Op{{Kind: OpCall, Callee: "g", SpillReg: isa.RBX, LandingPad: -1}}
	if err := p.Validate(); err == nil {
		t.Fatal("callee-saved spill reg accepted")
	}
}

func TestFinalizeNormalizesSourceInfo(t *testing.T) {
	p := validProgram()
	f := p.Modules[0].Funcs[1]
	f.Blocks[1].Ops = []Op{{Kind: OpMovImm, Dst: isa.RAX, Imm: 1}}
	p.Finalize()
	op := f.Blocks[1].Ops[0]
	if op.File != "m.mir" || op.Line == 0 {
		t.Fatalf("source info not normalized: %+v", op)
	}
	if op.LandingPad != -1 {
		t.Fatalf("non-call landing pad not normalized: %d", op.LandingPad)
	}
}

func TestSuccessors(t *testing.T) {
	p := validProgram()
	f := p.Modules[0].Funcs[1]
	succs := f.Successors(f.Blocks[0])
	if len(succs) != 2 {
		t.Fatalf("branch successors: %v", succs)
	}
	if got := f.Successors(f.Blocks[1]); len(got) != 0 {
		t.Fatalf("return must have no successors: %v", got)
	}
}

func TestFuncByName(t *testing.T) {
	p := validProgram()
	if p.FuncByName("g") == nil || p.FuncByName("nope") != nil {
		t.Fatal("FuncByName broken")
	}
}
