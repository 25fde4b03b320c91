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
// its immediate, displacement or absolute address. Encoded at the address
// moved by delta and decoded there, it must still be the same
// instruction: a RIP-relative operand and a direct branch keep their
// absolute addresses whenever the displacement from the new address fits.
// The encodings the encoder cannot reproduce are skipped below, each with
// its reason.
func FuzzDecode(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for k := 0; k < 64; k++ {
		in := randInst(r)
		buf, err := AppendInst(nil, &in, 0x401000, false)
		if err == nil {
			f.Add(buf, uint64(0x401000), int64(k-32)<<12)
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
		f.Add(seed, uint64(0x401000), int64(0x1000))
	}
	f.Add([]byte{0x48, 0x8B, 0x05, 0x10, 0x00, 0x00, 0x00}, uint64(0x401000), int64(-0x2000)) // movq 0x10(%rip), %rax
	f.Add([]byte{0x48, 0x89, 0x45, 0xF8}, uint64(0x401000), int64(0x7FFF0000))                // movq %rax, -0x8(%rbp)
	f.Fuzz(func(t *testing.T, code []byte, pc uint64, delta int64) {
		in, n, err := matchRef(t, code, pc)
		if err != nil {
			return
		}
		if n < 1 || n > MaxInstLen || n > len(code) {
			t.Fatalf("decode % x: length %d, want 1..%d within %d input bytes", code, n, MaxInstLen, len(code))
		}
		// fits reports whether the instruction's address, if it has one,
		// is within reach of a displacement from at.
		fits := func(at uint64) bool {
			if in.Op != CALL && !in.IsDirectBranch() && !(in.HasMem() && in.M.IsRIP()) {
				return true
			}
			return imm32OK(int64(in.TargetAddr()-at) - int64(InstLen(&in, true)))
		}
		switch {
		case in.Op == NOP && in.Imm() > int64(len(nopPatterns)-1):
			// AppendNop splits filler past its longest pattern into
			// several NOPs, so one decode cannot read it back whole.
			return
		case !fits(pc):
			// Prefixes the encoder never writes lengthen an instruction;
			// from the shorter canonical encoding a displacement at the
			// int32 limit can fall out of range.
			return
		}
		for _, at := range []uint64{pc, pc + uint64(delta)} {
			if !fits(at) {
				continue
			}
			buf, err := AppendInst(nil, &in, at, true)
			if err != nil {
				t.Fatalf("decode % x at %#x gave %s, which does not encode at %#x: %v", code, pc, in.String(), at, err)
			}
			again, m, err := decodeInst(buf, at)
			if err != nil || m != len(buf) {
				t.Fatalf("re-encoding % x of %s (from % x) at %#x decodes to %v after %d of %d bytes", buf, in.String(), code, at, err, m, len(buf))
			}
			if !sameInst(again, in) {
				t.Fatalf("decode % x at %#x = %+v; re-encoded % x at %#x decodes to %+v", code, pc, in, buf, at, again)
			}
		}
	})
}
