package isa

import (
	"math/rand"
	"testing"
)

// FuzzDecode feeds arbitrary bytes at an arbitrary address to the decoder.
// It must never panic and must agree with refDecode on the instruction,
// the length and the error; a decoded instruction is 1–15 bytes long and lies
// within the input; and encoding it at the same address (rel32 for every
// direct branch) and decoding the result must give the same instruction —
// opcode, registers, condition, memory operand, and the one word that is
// its immediate or its branch target. The encodings the encoder cannot
// reproduce are skipped below, each with its reason.
func FuzzDecode(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for k := 0; k < 64; k++ {
		in := randInst(r)
		buf, err := AppendInst(nil, &in, 0x401000, false)
		if err == nil {
			f.Add(buf, uint64(0x401000))
		}
	}
	for _, seed := range [][]byte{
		{0xEB, 0xFE},                         // jmp to itself
		{0x0F, 0x84, 0x00, 0x01, 0x00, 0x00}, // je rel32
		{0xE8, 0xFB, 0xFF, 0xFF, 0xFF},       // call back
		{0x66, 0x0F, 0x1F, 0x44, 0x00, 0x00}, // 6-byte nop
		{0xF3, 0xC3},                         // repz ret
		{0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x90},
	} {
		f.Add(seed, uint64(0x401000))
	}
	f.Fuzz(func(t *testing.T, code []byte, pc uint64) {
		in, n, err := matchRef(t, code, pc)
		if err != nil {
			return
		}
		if n < 1 || n > MaxInstLen || n > len(code) {
			t.Fatalf("decode % x: length %d, want 1..%d within %d input bytes", code, n, MaxInstLen, len(code))
		}
		switch {
		case in.Op == NOP && in.Imm() > int64(len(nopPatterns)-1):
			// AppendNop splits filler past its longest pattern into
			// several NOPs, so one decode cannot read it back whole.
			return
		case in.Op == CALL || in.IsDirectBranch():
			// Prefixes the encoder never writes lengthen a rel32 branch;
			// from the shorter canonical encoding a displacement at the
			// int32 limit can fall out of range.
			if rel := int64(in.TargetAddr()-pc) - int64(InstLen(&in, true)); !imm32OK(rel) {
				return
			}
		}
		buf, err := AppendInst(nil, &in, pc, true)
		if err != nil {
			t.Fatalf("decode % x gave %s, which does not encode: %v", code, in.String(), err)
		}
		again, m, err := decodeInst(buf, pc)
		if err != nil || m != len(buf) {
			t.Fatalf("re-encoding % x of %s (from % x) decodes to %v after %d of %d bytes", buf, in.String(), code, err, m, len(buf))
		}
		if again != in {
			t.Fatalf("decode % x = %+v; re-encoded % x decodes to %+v", code, in, buf, again)
		}
	})
}
