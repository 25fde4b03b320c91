package core

import (
	"reflect"
	"testing"
	"unsafe"

	"gobolt/internal/isa"
)

// TestInstLayout holds the instruction IR to its budget: the slabs of
// Inst are the largest allocation of a run and every phase walks them, so
// Inst stays within 48 bytes (isa.Inst within 24: one word for the
// immediate or target, the memory operand, four one-byte fields) and free
// of anything the collector would have to scan. A BasicBlock stays within
// 96 bytes: it stores its successors and nothing derived from them.
func TestInstLayout(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n > 48 {
		t.Errorf("sizeof(core.Inst) = %d, want <= 48", n)
	}
	if n := unsafe.Sizeof(isa.Inst{}); n > 24 {
		t.Errorf("sizeof(isa.Inst) = %d, want <= 24", n)
	}
	if n := unsafe.Sizeof(BasicBlock{}); n > 96 {
		t.Errorf("sizeof(core.BasicBlock) = %d, want <= 96", n)
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
