package obj

import (
	"testing"
	"unsafe"
)

func TestSymIDRoundTrip(t *testing.T) {
	f := FuncSym(12345)
	if f.Kind() != SymFunc || f.FuncOrd() != 12345 {
		t.Errorf("FuncSym: kind %v ord %d", f.Kind(), f.FuncOrd())
	}
	b := BlockSym(7, MaxFuncBlocks-1)
	if b.Kind() != SymBlock {
		t.Errorf("BlockSym kind %v", b.Kind())
	}
	if ord, idx := b.BlockRef(); ord != 7 || idx != MaxFuncBlocks-1 {
		t.Errorf("BlockRef = (%d, %d), want (7, %d)", ord, idx, MaxFuncBlocks-1)
	}
	const addr = uint64(0x7FFF_FFFF_1234)
	a := AbsSym(addr)
	if a.Kind() != SymAbs || a.AbsAddr() != addr {
		t.Errorf("AbsSym: kind %v addr %#x", a.Kind(), a.AbsAddr())
	}
	var zero SymID
	if zero.Kind() != SymNone {
		t.Errorf("zero SymID kind %v, want SymNone", zero.Kind())
	}
}

func TestSymIDDistinct(t *testing.T) {
	// The kind tag must separate payloads that share raw bits.
	if FuncSym(1) == (SymID{1}) || BlockSym(0, 1) == AbsSym(1) {
		t.Error("kinds collide on equal payloads")
	}
	// Block index and function ordinal occupy disjoint fields.
	x := BlockSym(3, 5)
	y := BlockSym(5, 3)
	if x == y {
		t.Error("BlockSym(3,5) == BlockSym(5,3)")
	}
}

// TestSymIDLayout pins what the emitter's relocation slices rely on: the
// opaque struct costs nothing over the integer it wraps.
func TestSymIDLayout(t *testing.T) {
	if n := unsafe.Sizeof(SymID{}); n != 8 {
		t.Errorf("SymID is %d bytes, want 8", n)
	}
	if n := unsafe.Sizeof(Reloc{}); n != 40 {
		t.Errorf("Reloc is %d bytes, want 40", n)
	}
}
