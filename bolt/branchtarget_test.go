package bolt_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"gobolt/bolt"
	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/isa"
)

// analyzed loads f through a fresh session and returns its functions.
func analyzed(t *testing.T, f *elfx.File) []*core.BinaryFunction {
	t.Helper()
	sess, err := bolt.OpenELF(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Analyze(context.Background()); err != nil {
		t.Fatal(err)
	}
	funcs, err := sess.Functions()
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// TestBadBranchTargetLeavesFunctionAlone is the paper's §3 contract for a
// direct branch the loader cannot place: one branch of the Tiny workload
// at a time is made to land inside an instruction, or outside its
// function on something that is not a function entry. The run must
// succeed, with exactly that function non-simple and its Reason naming
// the branch — not fail at emit on a block with a missing successor.
func TestBadBranchTargetLeavesFunctionAlone(t *testing.T) {
	f := buildTiny(t)
	pristine := analyzed(t, f)
	simple := map[string]bool{}
	nonSimple := int64(0)
	for _, fn := range pristine {
		simple[fn.Name] = fn.Simple
		if !fn.Simple {
			nonSimple++
		}
	}

	// starts decodes fn linearly (NOPs included) into its instruction
	// start addresses.
	starts := func(fn *core.BinaryFunction) map[uint64]bool {
		out := map[uint64]bool{}
		var in isa.Inst
		for off := uint64(0); off < fn.Size; {
			n, err := isa.Decode(&in, fn.Bytes[off:], fn.Addr+off)
			if err != nil {
				t.Fatalf("%s: %v", fn.Name, err)
			}
			out[fn.Addr+off] = true
			off += uint64(n)
		}
		return out
	}

	cases := []struct {
		name  string
		op    isa.Op
		rel   int   // displacement width in bytes
		delta int64 // added to the displacement; 0 = retarget out of the function
	}{
		{"jcc-rel8+1", isa.JCC, 1, +1},
		{"jcc-rel8-1", isa.JCC, 1, -1},
		{"jmp-rel8+1", isa.JMP, 1, +1},
		{"jmp-rel8-1", isa.JMP, 1, -1},
		{"jmp-rel32+1", isa.JMP, 4, +1},
		{"jmp-rel32-1", isa.JMP, 4, -1},
		{"jmp-rel32-out-of-function", isa.JMP, 4, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The first branch of this form whose moved target is still in
			// the function and is not an instruction start (delta != 0), or
			// the first of this form at all (delta == 0: it is sent one byte
			// past the next function's entry).
			var victim *core.BinaryFunction
			var branch *core.Inst
			var disp int64
		search:
			for i, fn := range pristine {
				if !fn.Simple || i+1 == len(pristine) {
					continue
				}
				st := starts(fn)
				for _, b := range fn.Blocks {
					for k := range b.Insts {
						in := &b.Insts[k]
						if in.I.Op != tc.op {
							continue
						}
						width := 1
						if in.I.Size >= 5 {
							width = 4
						}
						if width != tc.rel {
							continue
						}
						end := fn.InstAddr(in) + uint64(in.I.Size)
						target := in.I.TargetAddr() + uint64(tc.delta)
						if tc.delta == 0 {
							target = pristine[i+1].Addr + 1
						} else if target < fn.Addr || target >= fn.Addr+fn.Size || st[target] {
							continue
						}
						victim, branch, disp = fn, in, int64(target)-int64(end)
						break search
					}
				}
			}
			if victim == nil {
				t.Fatalf("no %s branch to patch in the Tiny workload", tc.name)
			}

			at := victim.InstAddr(branch) - victim.Addr + uint64(branch.I.Size) - uint64(tc.rel)
			field := victim.Bytes[at : at+uint64(tc.rel)]
			saved := append([]byte(nil), field...)
			defer copy(field, saved)
			if tc.rel == 1 {
				if disp != int64(int8(disp)) {
					t.Fatalf("displacement %d does not fit rel8", disp)
				}
				field[0] = byte(int8(disp))
			} else {
				binary.LittleEndian.PutUint32(field, uint32(int32(disp)))
			}

			sess, err := bolt.OpenELF(f)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sess.Optimize(context.Background())
			if err != nil {
				t.Fatalf("one unplaceable branch in %s failed the whole run: %v", victim.Name, err)
			}
			funcs, err := sess.Functions()
			if err != nil {
				t.Fatal(err)
			}
			for _, fn := range funcs {
				if fn.Name != victim.Name {
					if fn.Simple != simple[fn.Name] {
						t.Errorf("%s: Simple changed to %t though it was not patched", fn.Name, fn.Simple)
					}
					continue
				}
				where := fmt.Sprintf("+%#x", victim.InstAddr(branch)-victim.Addr)
				if fn.Simple || !strings.Contains(fn.Reason, where) {
					t.Errorf("%s: Simple=%t Reason=%q, want non-simple with a Reason naming the branch at %s",
						fn.Name, fn.Simple, fn.Reason, where)
				}
			}
			if got := rep.Metrics["load-non-simple"]; got != nonSimple+1 {
				t.Errorf("load-non-simple = %d, want %d", got, nonSimple+1)
			}
		})
	}
}

// TestWrappedSymbolSizeSkipped: a function symbol whose st_size is
// 2^64-8 reaches the loader's read as a negative length. The image still
// analyzes: that symbol is skipped, as any unreadable one is, and every
// other function loads as before.
func TestWrappedSymbolSizeSkipped(t *testing.T) {
	f := buildTiny(t)
	pristine := analyzed(t, f)
	// The last function symbol that is alone at its address: it lies far
	// enough into .text for an unchecked offset+length sum to wrap round
	// into the section.
	at := map[uint64]int{}
	for _, s := range f.Symbols {
		if s.Type == elfx.STTFunc {
			at[s.Value]++
		}
	}
	victim := -1
	for i, s := range f.Symbols {
		if s.Type == elfx.STTFunc && s.Section == ".text" && at[s.Value] == 1 &&
			(victim < 0 || s.Value > f.Symbols[victim].Value) {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatal("no function symbol to patch in the Tiny workload")
	}
	name := f.Symbols[victim].Name
	f.Symbols[victim].Size = ^uint64(0) - 7
	img, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := bolt.OpenReader(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Analyze(context.Background()); err != nil {
		t.Fatal(err)
	}
	funcs, err := sess.Functions()
	if err != nil {
		t.Fatal(err)
	}
	loaded := map[string]bool{}
	for _, fn := range funcs {
		loaded[fn.Name] = true
	}
	for _, fn := range pristine {
		if loaded[fn.Name] != (fn.Name != name) {
			t.Errorf("%s: loaded=%t, want only %s skipped", fn.Name, loaded[fn.Name], name)
		}
	}
}
