package core

import (
	"context"
	"reflect"
	"testing"
	"unsafe"

	"gobolt/internal/cc"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
)

// TestInstLayout holds the instruction IR to its budget: the slabs of
// Inst are the largest allocation of a run and every phase walks them, so
// Inst is 24 bytes (one table index serves the jump table of an indirect
// jump and the landing pad of a call, the CFI state index is 16 bits, and
// the call target and source line are read from the word and the origin,
// not stored), and isa.Inst 16 with 1-byte alignment (an unaligned word
// for the immediate, target or displacement, the memory operand with RIP
// as a base, five one-byte fields, the decoded length among them), both
// free of anything the collector would have to scan. A BasicBlock stays
// within 96 bytes: it stores its successors and nothing derived from
// them. The loader's per-instruction decode entry, rawInst, is 32 bytes.
func TestInstLayout(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n != 24 {
		t.Errorf("sizeof(core.Inst) = %d, want 24", n)
	}
	if n, a := unsafe.Sizeof(isa.Inst{}), unsafe.Alignof(isa.Inst{}); n != 16 || a != 1 {
		t.Errorf("sizeof(isa.Inst) = %d aligned to %d, want 16 aligned to 1", n, a)
	}
	if n := unsafe.Sizeof(BasicBlock{}); n > 96 {
		t.Errorf("sizeof(core.BasicBlock) = %d, want <= 96", n)
	}
	if n := unsafe.Sizeof(rawInst{}); n != 32 {
		t.Errorf("sizeof(core.rawInst) = %d, want 32", n)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Bool,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("%s is a %s: Inst must stay pointer-free", path, ty.Kind())
		}
	}
	walk("Inst", reflect.TypeOf(Inst{}))
}

// buildCallEndBinary links a program whose caller has a block that ends
// in a call covered by a landing pad: the call is the block's last op and
// its fall-through is a loop head, which another edge also reaches, so
// the loader starts a block right after the call.
func buildCallEndBinary(t *testing.T) *BinaryContext {
	t.Helper()
	thrower := ir.NewFunc("thrower", "lib.mir", 30)
	thrower.Blocks[0].Term = ir.Term{Kind: ir.TermThrow, LandingPad: -1}

	caller := ir.NewFunc("caller", "main.mir", 40)
	caller.SavedRegs = []isa.Reg{isa.RBX, isa.R12}
	call, cont, lp, done := caller.AddBlock(), caller.AddBlock(), caller.AddBlock(), caller.AddBlock()
	caller.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RBX, Imm: 0},
		{Kind: ir.OpMovImm, Dst: isa.R12, Imm: 0},
	}
	caller.Blocks[0].Term = ir.Term{Kind: ir.TermJump, Then: call.Index}
	call.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RDI, Src: isa.R12},
		{Kind: ir.OpCall, Callee: "thrower", SpillReg: isa.NoReg, LandingPad: lp.Index},
	}
	call.Term = ir.Term{Kind: ir.TermJump, Then: cont.Index}
	cont.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.R12, Imm: 1}}
	cont.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondL, CmpReg: isa.R12, CmpImm: 10,
		Then: call.Index, Else: done.Index}
	lp.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.RBX, Imm: 100}}
	lp.Term = ir.Term{Kind: ir.TermJump, Then: cont.Index}
	done.Ops = []ir.Op{{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RBX}}
	done.Term = ir.Term{Kind: ir.TermReturn}

	start := ir.NewFunc("_start", "main.mir", 1)
	start.Blocks[0].Ops = []ir.Op{{Kind: ir.OpCall, Callee: "caller", SpillReg: isa.NoReg, LandingPad: -1}}
	start.Blocks[0].Term = ir.Term{Kind: ir.TermExit}

	p := &ir.Program{Modules: []*ir.Module{
		{Name: "main", Funcs: []*ir.Func{start, caller}},
		{Name: "lib", Funcs: []*ir.Func{thrower}},
	}}
	p.Finalize()
	objs, err := cc.Compile(p, cc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(context.Background(), res.File, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestInstTableIndexByOp: Inst keeps one table index, and only the opcode
// says which table it names. A call reads it as its landing pad, an
// indirect jump as its jump table, and every other instruction as
// neither. A loaded block that ends in a call covered by a landing pad
// must not read that pad as a jump table, and has its fall-through as
// its one successor.
func TestInstTableIndexByOp(t *testing.T) {
	const k = 7
	for _, tc := range []struct {
		op     isa.Op
		jt, lp uint16
	}{
		{isa.CALL, 0, k}, {isa.CALLr, 0, k}, {isa.CALLm, 0, k},
		{isa.JMPr, k, 0}, {isa.JMPm, k, 0},
		{isa.JMP, 0, 0}, {isa.JCC, 0, 0},
	} {
		in := Inst{I: isa.NewInst(tc.op), tab: k}
		if in.JT() != tc.jt || in.LP() != tc.lp {
			t.Errorf("op %d (%s) with index %d: JT() = %d, LP() = %d; want %d, %d",
				tc.op, in.I.Mnemonic(), k, in.JT(), in.LP(), tc.jt, tc.lp)
		}
	}

	ctx := buildCallEndBinary(t)
	ends := 0
	for _, fn := range ctx.Funcs {
		for bi, b := range fn.Blocks {
			last := b.LastInst()
			if last == nil || last.LP() == 0 {
				continue
			}
			ends++
			if fn.JumpTable(last) != nil {
				t.Errorf("%s block %d: the call's landing pad reads as a jump table", fn.Name, b.Index)
			}
			if len(b.Succs) != 1 || bi+1 >= len(fn.Blocks) || b.Succs[0].To != fn.Blocks[bi+1] {
				t.Errorf("%s block %d: a call-ending block has %d successors, want its fall-through only", fn.Name, b.Index, len(b.Succs))
			}
		}
	}
	if ends == 0 {
		t.Fatal("no block ends in a call covered by a landing pad")
	}
}
