package cfi

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// savedMap lists a state's saved registers the way the old map-backed
// State stored them.
func savedMap(st *State) map[uint8]int32 {
	m := map[uint8]int32{}
	for r := uint8(0); r < NumRegs; r++ {
		if off, ok := st.SavedAt(r); ok {
			m[r] = off
		}
	}
	return m
}

func wantSaved(t *testing.T, what string, st State, want map[uint8]int32) {
	t.Helper()
	if got := savedMap(&st); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: saved registers %v, want %v", what, got, want)
	}
}

// standardPrologue builds the CFI program for:
//
//	0: push %rbp        -> def_cfa_offset 16; offset rbp, -16
//	1: mov %rsp,%rbp    -> def_cfa_register rbp
//	4: push %rbx        -> offset rbx, -24
//	5: sub $0x10,%rsp
func standardPrologue() FDE {
	return FDE{
		Start: 0x400000,
		Len:   0x40,
		Insts: []PCInst{
			{PC: 1, Inst: Inst{Kind: OpDefCfaOffset, Off: 16}},
			{PC: 1, Inst: Inst{Kind: OpOffset, Reg: 6, Off: -16}},
			{PC: 4, Inst: Inst{Kind: OpDefCfaRegister, Reg: 6}},
			{PC: 5, Inst: Inst{Kind: OpOffset, Reg: 3, Off: -24}},
		},
	}
}

func TestEvaluate(t *testing.T) {
	f := standardPrologue()
	st, err := f.Evaluate(0)
	if err != nil {
		t.Fatal(err)
	}
	if st != InitialState() {
		t.Errorf("entry state wrong: %+v", st)
	}
	st, err = f.Evaluate(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.CfaReg != 4 || st.CfaOff != 16 {
		t.Errorf("state after push rbp wrong: %+v", st)
	}
	wantSaved(t, "after push rbp", st, map[uint8]int32{6: -16})
	st, err = f.Evaluate(0x20)
	if err != nil {
		t.Fatal(err)
	}
	if st.CfaReg != 6 || st.CfaOff != 16 {
		t.Errorf("steady state wrong: %+v", st)
	}
	wantSaved(t, "steady state", st, map[uint8]int32{3: -24, 6: -16})
}

func TestRememberRestore(t *testing.T) {
	f := FDE{
		Start: 0, Len: 0x100,
		Insts: []PCInst{
			{PC: 1, Inst: Inst{Kind: OpDefCfaOffset, Off: 16}},
			{PC: 8, Inst: Inst{Kind: OpRememberState}},
			{PC: 8, Inst: Inst{Kind: OpOffset, Reg: 3, Off: -24}},
			{PC: 8, Inst: Inst{Kind: OpDefCfaOffset, Off: 24}},
			{PC: 0x20, Inst: Inst{Kind: OpRestoreState}},
		},
	}
	st, _ := f.Evaluate(0x10)
	if st.CfaOff != 24 {
		t.Errorf("inside region: %+v", st)
	}
	wantSaved(t, "inside region", st, map[uint8]int32{3: -24})
	st, _ = f.Evaluate(0x30)
	if st.CfaOff != 16 {
		t.Errorf("after restore: %+v", st)
	}
	wantSaved(t, "after restore", st, map[uint8]int32{})
}

func TestRestoreStateUnderflow(t *testing.T) {
	f := FDE{Insts: []PCInst{{PC: 0, Inst: Inst{Kind: OpRestoreState}}}}
	if _, err := f.Evaluate(1); err == nil {
		t.Fatal("expected underflow error")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	fdes := []FDE{standardPrologue(), {Start: 0x400100, Len: 8, LSDA: 0x500000}}
	data := EncodeFrames(fdes)
	got, err := DecodeFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d FDEs", len(got))
	}
	if got[0].Start != 0x400000 || len(got[0].Insts) != 4 || got[1].LSDA != 0x500000 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if got[0].Insts[3].Inst.String() != "OpOffset Reg3 -24" {
		t.Errorf("inst formatting: %q", got[0].Insts[3].Inst.String())
	}
}

// TestDecodeFramesSharedSlab: the decoded FDEs' instruction lists are cut
// from one allocation, and growing one must not overwrite the next.
func TestDecodeFramesSharedSlab(t *testing.T) {
	a, b := standardPrologue(), standardPrologue()
	b.Start += 0x100
	got, err := DecodeFrames(EncodeFrames([]FDE{a, b}))
	if err != nil {
		t.Fatal(err)
	}
	want := got[1].Insts[0]
	got[0].Insts = append(got[0].Insts, PCInst{PC: 0xdead})
	if got[1].Insts[0] != want {
		t.Errorf("append to the first FDE's Insts overwrote the second's: %+v", got[1].Insts[0])
	}
}

func TestFindFDE(t *testing.T) {
	fdes := []FDE{
		{Start: 0x1000, Len: 0x100},
		{Start: 0x2000, Len: 0x80},
		{Start: 0x3000, Len: 0x10},
	}
	data := EncodeFrames(fdes)
	sorted, _ := DecodeFrames(data)
	for _, tc := range []struct {
		addr uint64
		want uint64
		ok   bool
	}{
		{0x1000, 0x1000, true},
		{0x10FF, 0x1000, true},
		{0x1100, 0, false},
		{0x2040, 0x2000, true},
		{0x300F, 0x3000, true},
		{0x3010, 0, false},
		{0xFFF, 0, false},
	} {
		f, ok := FindFDE(sorted, tc.addr)
		if ok != tc.ok {
			t.Errorf("FindFDE(%#x): ok=%v want %v", tc.addr, ok, tc.ok)
			continue
		}
		if ok && f.Start != tc.want {
			t.Errorf("FindFDE(%#x) = %#x, want %#x", tc.addr, f.Start, tc.want)
		}
	}
}

func TestLSDARoundTrip(t *testing.T) {
	l := &LSDA{CallSites: []CallSite{
		{Start: 0x10, Len: 5, LandingPad: 0x400500, Action: 1},
		{Start: 0x20, Len: 5, LandingPad: 0, Action: 0},
	}}
	buf := []byte{0xEE} // existing content: offsets must be respected
	buf, off := EncodeLSDA(buf, l)
	var got LSDA
	if err := got.Decode(buf, off); err != nil {
		t.Fatal(err)
	}
	lp, action, ok := got.Lookup(0x12)
	if !ok || lp != 0x400500 || action != 1 {
		t.Errorf("Lookup(0x12) = %#x, %d, %v", lp, action, ok)
	}
	if _, _, ok := got.Lookup(0x22); ok {
		t.Errorf("zero landing pad must report no handler")
	}
	if _, _, ok := got.Lookup(0x100); ok {
		t.Errorf("outside ranges must report no handler")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeFrames([]byte{1, 2}); err == nil {
		t.Error("short frame section accepted")
	}
	if _, err := DecodeFrames([]byte{5, 0, 0, 0, 1}); err == nil {
		t.Error("truncated FDE accepted")
	}
	// Counts the section has no bytes for: refused, not allocated for.
	if _, err := DecodeFrames([]byte{255, 255, 255, 255}); err == nil {
		t.Error("frame section claiming 2^32-1 FDEs in four bytes accepted")
	}
	huge := append(make([]byte, 4+20), 255, 255, 255, 255)
	huge[0] = 1
	if _, err := DecodeFrames(huge); err == nil {
		t.Error("FDE claiming 2^32-1 instructions accepted")
	}
	var l LSDA
	if err := l.Decode([]byte{1}, 0); err == nil {
		t.Error("truncated LSDA accepted")
	}
	if err := l.Decode([]byte{255, 0, 0, 0}, 0); err == nil {
		t.Error("oversized LSDA accepted")
	}
}

// TestStateAccessors pins the value semantics interning relies on:
// restoring a register returns the state to == its earlier value, and a
// register number the state cannot track is ignored, not indexed with.
func TestStateAccessors(t *testing.T) {
	st := InitialState()
	st.Save(3, -24)
	if off, ok := st.SavedAt(3); !ok || off != -24 {
		t.Errorf("SavedAt(3) = %d, %v after Save", off, ok)
	}
	st.Restore(3)
	if st != InitialState() {
		t.Errorf("Save then Restore left %+v, want the initial state", st)
	}
	for _, reg := range []uint8{NumRegs, 64, 255} {
		st.Save(reg, -8)
		st.Restore(reg)
		if _, ok := st.SavedAt(reg); ok || st != InitialState() {
			t.Errorf("register %d beyond NumRegs changed the state: %+v", reg, st)
		}
	}
	f := FDE{Insts: []PCInst{
		{PC: 0, Inst: Inst{Kind: OpOffset, Reg: 200, Off: -16}},
		{PC: 0, Inst: Inst{Kind: OpRestore, Reg: 99}},
	}}
	if got, err := f.Evaluate(0); err != nil || got != InitialState() {
		t.Errorf("Evaluate with out-of-range registers = %+v, %v", got, err)
	}
}

// refState and refStateDiff are the map-backed State and StateDiff this
// package used before State became a value: the reference the property
// test below holds the mask walk to, instruction for instruction.
type refState struct {
	CfaReg uint8
	CfaOff int32
	Saved  map[uint8]int32
}

func refStateDiff(from, to *refState) []Inst {
	var out []Inst
	if from.CfaReg != to.CfaReg || from.CfaOff != to.CfaOff {
		out = append(out, Inst{Kind: OpDefCfa, Reg: to.CfaReg, Off: to.CfaOff})
	}
	for r := uint8(0); r < 17; r++ {
		if _, had := from.Saved[r]; had {
			if _, has := to.Saved[r]; !has {
				out = append(out, Inst{Kind: OpRestore, Reg: r})
			}
		}
	}
	for r := uint8(0); r < 17; r++ {
		off, has := to.Saved[r]
		if !has {
			continue
		}
		if old, had := from.Saved[r]; !had || old != off {
			out = append(out, Inst{Kind: OpOffset, Reg: r, Off: off})
		}
	}
	return out
}

// randomStatePair draws the same state in both representations. Few
// distinct values per field, so pairs often agree on the CFA, on a
// register being saved, or on its offset.
func randomStatePair(rng *rand.Rand) (State, refState) {
	st := State{CfaReg: uint8(4 + 2*rng.Intn(2)), CfaOff: int32(8 * (1 + rng.Intn(3)))}
	ref := refState{CfaReg: st.CfaReg, CfaOff: st.CfaOff, Saved: map[uint8]int32{}}
	for n := rng.Intn(6); n > 0; n-- {
		reg, off := uint8(rng.Intn(NumRegs)), int32(-8*(1+rng.Intn(4)))
		st.Save(reg, off)
		ref.Saved[reg] = off
	}
	if rng.Intn(4) == 0 {
		reg := uint8(rng.Intn(NumRegs))
		st.Restore(reg)
		delete(ref.Saved, reg)
	}
	return st, ref
}

func TestStateDiffMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 1000; i++ {
		from, refFrom := randomStatePair(rng)
		to, refTo := randomStatePair(rng)
		if i%10 == 0 {
			to, refTo = from, refFrom // the early-out path
		}
		// The diff lands after what dst already holds, which it leaves alone.
		dst := AppendStateDiff([]Inst{{Kind: OpRememberState}}, &from, &to)
		got, want := dst[1:], refStateDiff(&refFrom, &refTo)
		if dst[0].Kind != OpRememberState || !slices.Equal(got, want) {
			t.Fatalf("pair %d: AppendStateDiff(%+v, %+v)\n got %v\nwant %v", i, refFrom, refTo, got, want)
		}
		// Applying the diff to `from` must reach `to`.
		for _, in := range got {
			switch in.Kind {
			case OpDefCfa:
				from.CfaReg, from.CfaOff = in.Reg, in.Off
			case OpOffset:
				from.Save(in.Reg, in.Off)
			case OpRestore:
				from.Restore(in.Reg)
			}
		}
		if from != to {
			t.Fatalf("pair %d: applying the diff reached %+v, want %+v", i, from, to)
		}
	}
}

func BenchmarkStateDiff(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	var pairs [64][2]State
	for i := range pairs {
		pairs[i][0], _ = randomStatePair(rng)
		pairs[i][1], _ = randomStatePair(rng)
		if i%2 == 0 {
			pairs[i][1] = pairs[i][0] // the emitter's common case: state unchanged
		}
	}
	// One destination, truncated and reused, as the emitter's mark list
	// is: a state diff costs no allocation.
	var dst []Inst
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		p := &pairs[i%len(pairs)]
		dst = AppendStateDiff(dst[:0], &p[0], &p[1])
		i++
	}
}
