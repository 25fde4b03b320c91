package asmx

import (
	"reflect"
	"testing"

	"gobolt/internal/isa"
	"gobolt/internal/obj"
)

// decode is isa.Decode returning the instruction by value, as the
// tests read it.
func decode(code []byte, pc uint64) (isa.Inst, int, error) {
	var in isa.Inst
	n, err := isa.Decode(&in, code, pc)
	return in, n, err
}

// finish lays the stream out at base and encodes it into fresh buffers.
func finish(a *Assembler, base uint64) (Result, error) {
	if _, err := a.Layout(base); err != nil {
		return Result{}, err
	}
	return a.Finish(nil, nil)
}

func TestShortBranch(t *testing.T) {
	a := New()
	top := a.NewLabel()
	a.Bind(top)
	a.Emit(func() isa.Inst { i := isa.NewInst(isa.ADDri); i.R1 = isa.RAX; i.SetImm(1); return i }())
	jcc := isa.NewInst(isa.JCC)
	jcc.Cc = isa.CondNE
	a.EmitBranch(jcc, top)
	a.Emit(isa.NewInst(isa.RET))
	res, err := finish(a, 0x400000)
	if err != nil {
		t.Fatal(err)
	}
	// add(4) + jcc rel8(2) + ret(1) = 7 bytes.
	if len(res.Code) != 7 {
		t.Fatalf("expected short form, got %d bytes: % x", len(res.Code), res.Code)
	}
	dec, _, err := decode(res.Code[4:], 0x400004)
	if err != nil || dec.Op != isa.JCC || dec.TargetAddr() != 0x400000 {
		t.Fatalf("branch decode: %v %v target %#x", dec.Op, err, dec.TargetAddr())
	}
}

func TestRelaxationWidens(t *testing.T) {
	a := New()
	end := a.NewLabel()
	jmp := isa.NewInst(isa.JMP)
	a.EmitBranch(jmp, end)
	// 200 bytes of filler forces the jump to rel32.
	for i := 0; i < 50; i++ {
		a.Emit(func() isa.Inst { i := isa.NewInst(isa.ADDri); i.R1 = isa.RBX; i.SetImm(1); return i }())
	}
	a.Bind(end)
	a.Emit(isa.NewInst(isa.RET))
	res, err := finish(a, 0x400000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Code[0] != 0xE9 {
		t.Fatalf("expected rel32 jmp, first byte %#x", res.Code[0])
	}
	dec, n, err := decode(res.Code, 0x400000)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(0x400000 + n + 50*4)
	if dec.TargetAddr() != want {
		t.Fatalf("jmp target %#x, want %#x", dec.TargetAddr(), want)
	}
}

func TestChainOfBranchesConverges(t *testing.T) {
	// Branches that straddle each other: widening one can push another out
	// of rel8 range; the fixpoint loop must converge.
	a := New()
	labels := make([]Label, 10)
	for i := range labels {
		labels[i] = a.NewLabel()
	}
	for i := 0; i < 10; i++ {
		jmp := isa.NewInst(isa.JMP)
		a.EmitBranch(jmp, labels[9-i])
		for j := 0; j < 12; j++ {
			a.Emit(func() isa.Inst { k := isa.NewInst(isa.ADDri); k.R1 = isa.RAX; k.SetImm(100); return k }())
		}
		a.Bind(labels[i])
	}
	a.Emit(isa.NewInst(isa.RET))
	if _, err := finish(a, 0x400000); err != nil {
		t.Fatal(err)
	}
}

func TestAlign(t *testing.T) {
	a := New()
	a.Emit(isa.NewInst(isa.RET))
	a.Align(16)
	l := a.NewLabel()
	a.Bind(l)
	a.Emit(isa.NewInst(isa.RET))
	res, err := finish(a, 0x400000)
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelOffs[l] != 16 {
		t.Fatalf("aligned label at %d, want 16", res.LabelOffs[l])
	}
	// Padding must be decodable NOPs.
	off := uint64(1)
	for off < 16 {
		dec, n, err := decode(res.Code[off:], 0x400000+off)
		if err != nil || dec.Op != isa.NOP {
			t.Fatalf("pad at %d not nop: %v %v", off, dec.Op, err)
		}
		off += uint64(n)
	}
}

func TestRelocPlacement(t *testing.T) {
	a := New()
	call := isa.NewInst(isa.CALL)
	a.EmitReloc(call, obj.RelPC32, "callee", -4)
	lea := isa.NewInst(isa.LEA)
	lea.R1 = isa.RAX
	lea.M = isa.Mem{Base: isa.RIP, Index: isa.NoReg}
	a.EmitReloc(lea, obj.RelPC32, "table", -4)
	res, err := finish(a, 0x400000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Relocs) != 2 {
		t.Fatalf("got %d relocs", len(res.Relocs))
	}
	if res.Relocs[0].Off != 1 || res.Relocs[0].Sym != "callee" {
		t.Errorf("call reloc wrong: %+v", res.Relocs[0])
	}
	// lea is 7 bytes (rex+8D+modrm+disp32): reloc at 5 + 7 - 4 = 8.
	if res.Relocs[1].Off != 8 || res.Relocs[1].Sym != "table" {
		t.Errorf("lea reloc wrong: %+v", res.Relocs[1])
	}
}

// TestRelocNamesSurviveReset: a named relocation keeps its name next to
// numbered ones and across a Reset, and the stream's items stay free of
// pointers, so the emitter's appends cost no GC write barrier.
func TestRelocNamesSurviveReset(t *testing.T) {
	a := New()
	for round, want := range []string{"first", "second"} {
		a.Reset()
		a.EmitRelocID(isa.NewInst(isa.CALL), obj.RelPC32, obj.FuncSym(7), -4)
		a.EmitReloc(isa.NewInst(isa.CALL), obj.RelPC32, want, -4)
		res, err := finish(a, 0x400000)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Relocs) != 2 || res.Relocs[0].Sym != "" || res.Relocs[0].SymID != obj.FuncSym(7) || res.Relocs[1].Sym != want {
			t.Errorf("round %d: relocs %+v, want FuncSym(7) then %q", round, res.Relocs, want)
		}
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
			t.Errorf("%s is a %s: item must stay pointer-free", path, ty.Kind())
		}
	}
	walk("item", reflect.TypeOf(item{}))
}

func TestUnboundLabel(t *testing.T) {
	a := New()
	l := a.NewLabel()
	a.EmitBranch(isa.NewInst(isa.JMP), l)
	if _, err := finish(a, 0); err == nil {
		t.Fatal("unbound label must error")
	}
}

// TestFinishAppendsIntoRoom: with the room Layout reported, Finish writes
// the body after what the buffers already hold, allocates nothing, and
// counts relocation offsets from the body's start.
func TestFinishAppendsIntoRoom(t *testing.T) {
	a := New()
	a.Emit(isa.NewInst(isa.RET))
	a.EmitReloc(isa.NewInst(isa.CALL), obj.RelPC32, "callee", -4)
	sz, err := a.Layout(0x400000)
	if err != nil {
		t.Fatal(err)
	}
	if sz != (Size{Code: 6, Relocs: 1}) {
		t.Fatalf("Layout size %+v, want 6 code bytes and 1 relocation", sz)
	}
	code := append(make([]byte, 0, 2+sz.Code), 0xAA, 0xBB)
	relocs := make([]obj.Reloc, 0, sz.Relocs)
	var res Result
	allocs := testing.AllocsPerRun(10, func() {
		res, err = a.Finish(code, relocs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("Finish into buffers with room allocated %v times", allocs)
	}
	if len(res.Code) != 2+sz.Code || res.Code[0] != 0xAA || &res.Code[0] != &code[0] {
		t.Fatalf("code % x not appended in place after the existing bytes", res.Code)
	}
	if len(res.Relocs) != 1 || res.Relocs[0].Off != 2 {
		t.Fatalf("relocs %+v, want one at body offset 2", res.Relocs)
	}
}
