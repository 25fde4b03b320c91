package isa

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// encodeOne is a test helper that encodes a single instruction at pc.
func encodeOne(t *testing.T, i Inst, pc uint64, long bool) []byte {
	t.Helper()
	buf, err := AppendInst(nil, &i, pc, long)
	if err != nil {
		t.Fatalf("encode %v: %v", i.String(), err)
	}
	return buf
}

// decodeInst is Decode returning the instruction by value, as the
// tests read it.
func decodeInst(code []byte, pc uint64) (Inst, int, error) {
	var in Inst
	n, err := Decode(&in, code, pc)
	return in, n, err
}

func TestEncodeDecodeFixed(t *testing.T) {
	mk := func(op Op) Inst { return NewInst(op) }
	cases := []Inst{
		func() Inst { i := mk(MOVrr); i.R1 = RAX; i.R2 = RBX; return i }(),
		func() Inst { i := mk(MOVrr); i.R1 = R15; i.R2 = R8; return i }(),
		func() Inst { i := mk(MOVri); i.R1 = RDI; i.SetImm(42); return i }(),
		func() Inst { i := mk(MOVri); i.R1 = R12; i.SetImm(-7); return i }(),
		func() Inst { i := mk(MOVabs); i.R1 = RSI; i.SetImm(0x1234567890); return i }(),
		func() Inst {
			i := mk(MOVrm)
			i.R1 = RAX
			i.M = Mem{Base: RBP, Index: NoReg, Scale: 1}
			i.SetDisp(-8)
			return i
		}(),
		func() Inst {
			i := mk(MOVmr)
			i.R1 = RCX
			i.M = Mem{Base: RSP, Index: NoReg, Scale: 1}
			i.SetDisp(16)
			return i
		}(),
		func() Inst {
			i := mk(MOVrm)
			i.R1 = RDX
			i.M = Mem{Base: NoReg, Index: NoReg, RIP: true}
			i.SetTargetAddr(0x400000 + 0x100)
			return i
		}(),
		func() Inst {
			i := mk(MOVZXBrm)
			i.R1 = RAX
			i.M = Mem{Base: RDI, Index: RSI, Scale: 1}
			return i
		}(),
		func() Inst {
			i := mk(MOVSXDrm)
			i.R1 = RBX
			i.M = Mem{Base: RDI, Index: RAX, Scale: 4}
			return i
		}(),
		func() Inst {
			i := mk(LEA)
			i.R1 = R10
			i.M = Mem{Base: NoReg, Index: NoReg, RIP: true}
			i.SetTargetAddr(0x400000 - 64)
			return i
		}(),
		func() Inst { i := mk(ADDrr); i.R1 = RAX; i.R2 = RDX; return i }(),
		func() Inst { i := mk(ADDri); i.R1 = RSP; i.SetImm(8); return i }(),
		func() Inst { i := mk(ADDri); i.R1 = RSP; i.SetImm(1024); return i }(),
		func() Inst { i := mk(SUBri); i.R1 = RSP; i.SetImm(0x10); return i }(),
		func() Inst { i := mk(IMULrr); i.R1 = RAX; i.R2 = R9; return i }(),
		func() Inst { i := mk(XORrr); i.R1 = RAX; i.R2 = RAX; return i }(),
		func() Inst { i := mk(ANDri); i.R1 = RBX; i.SetImm(-8); return i }(),
		func() Inst { i := mk(SHLri); i.R1 = RCX; i.SetImm(3); return i }(),
		func() Inst { i := mk(SHRri); i.R1 = RCX; i.SetImm(9); return i }(),
		func() Inst { i := mk(CMPrr); i.R1 = RDI; i.R2 = RSI; return i }(),
		func() Inst { i := mk(CMPri); i.R1 = RDI; i.SetImm(100); return i }(),
		func() Inst { i := mk(CMPri); i.R1 = R13; i.SetImm(100000); return i }(),
		func() Inst { i := mk(TESTrr); i.R1 = RAX; i.R2 = RAX; return i }(),
		func() Inst { i := mk(JMPr); i.R1 = RAX; return i }(),
		func() Inst { i := mk(JMPr); i.R1 = R11; return i }(),
		func() Inst {
			i := mk(JMPm)
			i.M = Mem{Base: NoReg, Index: NoReg, RIP: true}
			i.SetTargetAddr(0x400000 + 0x2000)
			return i
		}(),
		func() Inst {
			i := mk(JMPm)
			i.M = Mem{Base: RDI, Index: RAX, Scale: 8}
			return i
		}(),
		func() Inst { i := mk(CALLr); i.R1 = RDX; return i }(),
		func() Inst {
			i := mk(CALLm)
			i.M = Mem{Base: NoReg, Index: NoReg, RIP: true}
			i.SetTargetAddr(0x400000 + 0x40)
			return i
		}(),
		mk(RET), mk(REPZRET), mk(UD2), mk(HLT),
		func() Inst { i := mk(PUSH); i.R1 = RBP; return i }(),
		func() Inst { i := mk(PUSH); i.R1 = R14; return i }(),
		func() Inst { i := mk(POP); i.R1 = RBP; return i }(),
		func() Inst { i := mk(POP); i.R1 = R9; return i }(),
	}
	const pc = 0x400000
	for _, c := range cases {
		buf := encodeOne(t, c, pc, false)
		if got := InstLen(&c, false); got != len(buf) {
			t.Errorf("%s: InstLen=%d, encoded %d bytes", c.String(), got, len(buf))
		}
		dec, n, err := decodeInst(buf, pc)
		if err != nil {
			t.Fatalf("decode %s (% x): %v", c.String(), buf, err)
		}
		if n != len(buf) {
			t.Errorf("%s: decoded %d of %d bytes", c.String(), n, len(buf))
		}
		if dec.String() != c.String() {
			t.Errorf("roundtrip mismatch: encoded %q, decoded %q (% x)", c.String(), dec.String(), buf)
		}
	}
}

func TestBranchEncoding(t *testing.T) {
	const pc = 0x400100
	for _, tc := range []struct {
		op     Op
		cc     Cond
		target uint64
		long   bool
		length int
	}{
		{JMP, 0, pc + 10, false, 2},
		{JMP, 0, pc - 20, false, 2},
		{JMP, 0, pc + 4096, true, 5},
		{JCC, CondE, pc + 4, false, 2},
		{JCC, CondNE, pc - 100, false, 2},
		{JCC, CondG, pc + 100000, true, 6},
		{CALL, 0, pc + 0x1000, false, 5},
		{CALL, 0, pc - 0x1000, false, 5},
	} {
		i := NewInst(tc.op)
		i.Cc = tc.cc
		i.SetTargetAddr(tc.target)
		buf := encodeOne(t, i, pc, tc.long)
		if len(buf) != tc.length {
			t.Fatalf("%s to %#x: got %d bytes, want %d", i.Mnemonic(), tc.target, len(buf), tc.length)
		}
		dec, _, err := decodeInst(buf, pc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if dec.Op != tc.op || dec.TargetAddr() != tc.target {
			t.Errorf("%s: decoded op=%v target=%#x, want op=%v target=%#x",
				i.Mnemonic(), dec.Op, dec.TargetAddr(), tc.op, tc.target)
		}
		if tc.op == JCC && dec.Cc != tc.cc {
			t.Errorf("cond mismatch: got %v want %v", dec.Cc, tc.cc)
		}
	}
}

func TestBranchRangeError(t *testing.T) {
	i := NewInst(JMP)
	i.SetTargetAddr(0x400000 + 1000)
	_, err := AppendInst(nil, &i, 0x400000, false)
	if !errors.Is(err, errBranchRange) {
		t.Fatalf("expected branch range error, got %v", err)
	}
	// The long form must succeed.
	buf, err := AppendInst(nil, &i, 0x400000, true)
	if err != nil || len(buf) != 5 {
		t.Fatalf("long form: %v, %d bytes", err, len(buf))
	}
}

func TestNopLengths(t *testing.T) {
	for n := 1; n <= 32; n++ {
		buf := AppendNop(nil, n)
		if len(buf) != n {
			t.Fatalf("AppendNop(%d) produced %d bytes", n, len(buf))
		}
		// Every nop sequence must decode to NOPs covering exactly n bytes.
		off := 0
		for off < n {
			dec, sz, err := decodeInst(buf[off:], 0x400000+uint64(off))
			if err != nil {
				t.Fatalf("nop decode at %d (% x): %v", off, buf, err)
			}
			if dec.Op != NOP {
				t.Fatalf("expected NOP at %d, got %v", off, dec.Op)
			}
			off += sz
		}
		if off != n {
			t.Fatalf("nop decode overran: %d != %d", off, n)
		}
	}
}

func TestCondInvert(t *testing.T) {
	pairs := [][2]Cond{{CondE, CondNE}, {CondL, CondGE}, {CondLE, CondG}, {CondB, CondAE}, {CondS, CondNS}, {CondO, CondNO}}
	for _, p := range pairs {
		if p[0].Invert() != p[1] || p[1].Invert() != p[0] {
			t.Errorf("invert %v <-> %v broken", p[0], p[1])
		}
	}
}

func TestRegSets(t *testing.T) {
	i := NewInst(CALL)
	if !i.Defs().Has(RAX) || !i.Defs().Has(R11) || i.Defs().Has(RBX) {
		t.Errorf("call defs wrong: %v", i.Defs())
	}
	add := NewInst(ADDrr)
	add.R1, add.R2 = RAX, RBX
	if !add.Uses().Has(RAX) || !add.Uses().Has(RBX) {
		t.Errorf("add uses wrong: %v", add.Uses())
	}
	if add.Defs()&FlagsBit == 0 {
		t.Errorf("add must def flags")
	}
	jcc := NewInst(JCC)
	if jcc.Uses()&FlagsBit == 0 {
		t.Errorf("jcc must use flags")
	}
	st := NewInst(MOVmr)
	st.R1 = RDX
	st.M = Mem{Base: RSP, Index: NoReg}
	st.SetDisp(8)
	if !st.Uses().Has(RDX) || !st.Uses().Has(RSP) {
		t.Errorf("store uses wrong: %v", st.Uses())
	}
	if st.Defs().Has(RDX) {
		t.Errorf("store must not def RDX")
	}
}

// randInst builds a random valid instruction for property testing.
func randInst(r *rand.Rand) Inst {
	regs := []Reg{RAX, RCX, RDX, RBX, RSP, RBP, RSI, RDI, R8, R9, R10, R11, R12, R13, R14, R15}
	anyReg := func() Reg { return regs[r.Intn(len(regs))] }
	// Index register cannot be RSP.
	idxReg := func() Reg {
		for {
			g := anyReg()
			if g != RSP {
				return g
			}
		}
	}
	// randMem gives i a random memory operand; a RIP-relative one
	// reaches up to half a megabyte either side of 0x401000.
	randMem := func(i *Inst) {
		switch r.Intn(3) {
		case 0:
			i.M = Mem{Base: NoReg, Index: NoReg, RIP: true}
			i.SetTargetAddr(uint64(0x401000 + r.Intn(1<<20) - 1<<19))
		case 1:
			i.M = Mem{Base: anyReg(), Index: NoReg, Scale: 1}
			i.SetDisp(int32(r.Intn(512) - 256))
		default:
			scales := []uint8{1, 2, 4, 8}
			i.M = Mem{Base: anyReg(), Index: idxReg(), Scale: scales[r.Intn(4)]}
			i.SetDisp(int32(r.Intn(1<<16) - 1<<15))
		}
	}
	ops := []Op{MOVrr, MOVri, MOVabs, MOVrm, MOVmr, MOVZXBrm, MOVSXDrm, LEA,
		ADDrr, ADDri, SUBrr, SUBri, IMULrr, XORrr, ANDri, SHLri, SHRri,
		CMPrr, CMPri, TESTrr, JMPr, JMPm, CALLr, CALLm, RET, REPZRET, PUSH, POP, UD2, HLT}
	i := NewInst(ops[r.Intn(len(ops))])
	switch i.Op {
	case MOVrr, ADDrr, SUBrr, IMULrr, XORrr, CMPrr, TESTrr:
		i.R1, i.R2 = anyReg(), anyReg()
	case MOVri, ADDri, SUBri, ANDri, CMPri:
		i.R1 = anyReg()
		i.SetImm(int64(int32(r.Uint32())))
	case MOVabs:
		i.R1 = anyReg()
		i.SetImm(int64(r.Uint64()))
	case SHLri, SHRri:
		i.R1 = anyReg()
		i.SetImm(int64(r.Intn(64)))
	case MOVrm, MOVZXBrm, MOVSXDrm, LEA:
		i.R1 = anyReg()
		randMem(&i)
	case MOVmr:
		i.R1 = anyReg()
		randMem(&i)
	case JMPr, CALLr, PUSH, POP:
		i.R1 = anyReg()
	case JMPm, CALLm:
		randMem(&i)
	}
	return i
}

func TestEncodeDecodeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	check := func() bool {
		in := randInst(r)
		const pc = 0x401000
		buf, err := AppendInst(nil, &in, pc, false)
		if err != nil {
			t.Logf("encode error for %s: %v", in.String(), err)
			return false
		}
		if InstLen(&in, false) != len(buf) {
			t.Logf("InstLen mismatch for %s: %d vs %d", in.String(), InstLen(&in, false), len(buf))
			return false
		}
		dec, n, err := decodeInst(buf, pc)
		if err != nil || n != len(buf) {
			t.Logf("decode error for %s (% x): %v n=%d", in.String(), buf, err, n)
			return false
		}
		// Printed form is a canonical witness of operand equality.
		if dec.String() != in.String() {
			t.Logf("mismatch: in=%q out=%q bytes=% x", in.String(), dec.String(), buf)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	// Unknown opcodes must fail cleanly, never panic.
	bad := [][]byte{{}, {0x06}, {0x0F}, {0x0F, 0xFF}, {0xC7}, {0xC7, 0xC0}, {0x48}, {0xE9, 1, 2}}
	for _, b := range bad {
		if _, _, err := decodeInst(b, 0x400000); err == nil {
			t.Errorf("decode % x unexpectedly succeeded", b)
		}
	}
}
