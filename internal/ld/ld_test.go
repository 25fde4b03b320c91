package ld

import (
	"bytes"
	"fmt"
	"testing"

	"gobolt/internal/obj"
)

func tinyObjects() []*obj.Object {
	// _start: call f; hlt  (call rel32 patched by the linker)
	start := &obj.Func{
		Name:   "_start",
		Bytes:  []byte{0xE8, 0, 0, 0, 0, 0xF4},
		Align:  16,
		Global: true,
		Relocs: []obj.Reloc{{Off: 1, Type: obj.RelPC32, Sym: "f", Addend: -4}},
	}
	f := &obj.Func{Name: "f", Bytes: []byte{0xC3}, Align: 16, Global: true}
	g := &obj.Global{Name: "blob", Data: []byte{1, 2, 3, 4}, Align: 4}
	return []*obj.Object{{Name: "m", Funcs: []*obj.Func{start, f}, Globals: []*obj.Global{g}}}
}

func TestLinkBasics(t *testing.T) {
	res, err := Link(tinyObjects(), Options{EmitRelocs: true})
	if err != nil {
		t.Fatal(err)
	}
	file := res.File
	startSym, ok := file.SymbolByName("_start")
	if !ok || file.Entry != startSym.Value {
		t.Fatalf("entry mismatch: %#x vs %+v", file.Entry, startSym)
	}
	fSym, _ := file.SymbolByName("f")
	// Verify the call displacement resolves to f.
	text := file.Section(".text")
	off := startSym.Value - text.Addr + 1
	disp := int32(uint32(text.Data[off]) | uint32(text.Data[off+1])<<8 |
		uint32(text.Data[off+2])<<16 | uint32(text.Data[off+3])<<24)
	target := startSym.Value + 5 + uint64(int64(disp))
	if target != fSym.Value {
		t.Fatalf("call resolves to %#x, want %#x", target, fSym.Value)
	}
	if len(file.Relas[".text"]) != 1 {
		t.Fatalf("emit-relocs lost: %v", file.Relas)
	}
}

func TestLinkRejectsDuplicates(t *testing.T) {
	objs := tinyObjects()
	objs = append(objs, &obj.Object{Funcs: []*obj.Func{{Name: "f", Bytes: []byte{0xC3}}}})
	if _, err := Link(objs, Options{}); err == nil {
		t.Fatal("duplicate symbol accepted")
	}
}

func TestLinkRequiresStart(t *testing.T) {
	objs := []*obj.Object{{Funcs: []*obj.Func{{Name: "f", Bytes: []byte{0xC3}}}}}
	if _, err := Link(objs, Options{}); err == nil {
		t.Fatal("missing _start accepted")
	}
}

func TestLinkerICFFoldsRelocFreeOnly(t *testing.T) {
	objs := tinyObjects()
	dupA := &obj.Func{Name: "dupA", Bytes: []byte{0x48, 0x31, 0xC0, 0xC3}}
	dupB := &obj.Func{Name: "dupB", Bytes: []byte{0x48, 0x31, 0xC0, 0xC3}}
	// Same bytes but with a relocation: must NOT fold.
	dupC := &obj.Func{Name: "dupC", Bytes: []byte{0x48, 0x31, 0xC0, 0xC3},
		Relocs: []obj.Reloc{{Off: 0, Type: obj.RelPC32, Sym: "f", Addend: -4}}}
	objs[0].Funcs = append(objs[0].Funcs, dupA, dupB, dupC)
	res, err := Link(objs, Options{ICF: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ICFFolded != 1 {
		t.Fatalf("folded %d, want 1", res.ICFFolded)
	}
	a, _ := res.File.SymbolByName("dupA")
	b, _ := res.File.SymbolByName("dupB")
	c, _ := res.File.SymbolByName("dupC")
	if a.Value != b.Value {
		t.Errorf("dupA/dupB must alias: %#x vs %#x", a.Value, b.Value)
	}
	if c.Value == a.Value {
		t.Errorf("dupC (with relocs) must not fold")
	}
}

func TestFuncOrder(t *testing.T) {
	objs := tinyObjects()
	objs[0].Funcs = append(objs[0].Funcs,
		&obj.Func{Name: "a", Bytes: []byte{0xC3}},
		&obj.Func{Name: "b", Bytes: []byte{0xC3}},
	)
	res, err := Link(objs, Options{FuncOrder: []string{"b", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	aSym, _ := res.File.SymbolByName("a")
	bSym, _ := res.File.SymbolByName("b")
	if bSym.Value >= aSym.Value {
		t.Fatalf("FuncOrder ignored: b=%#x a=%#x", bSym.Value, aSym.Value)
	}
}

// TestLinkDeterministic: two links of the same objects are the same
// bytes. The symbols of ICF-folded aliases used to be appended in map
// order, so the symbol table differed from link to link.
func TestLinkDeterministic(t *testing.T) {
	link := func() []byte {
		t.Helper()
		objs := tinyObjects()
		for i := 0; i < 8; i++ {
			objs[0].Funcs = append(objs[0].Funcs,
				&obj.Func{Name: fmt.Sprintf("dup%d", i), Bytes: []byte{0x48, 0x31, 0xC0, 0xC3}})
		}
		res, err := Link(objs, Options{ICF: true, EmitRelocs: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.ICFFolded != 7 {
			t.Fatalf("folded %d, want 7", res.ICFFolded)
		}
		data, err := res.File.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := link()
	for i := 1; i < 20; i++ {
		if !bytes.Equal(link(), first) {
			t.Fatalf("link %d differs from link 0", i)
		}
	}
}
