package perf

import (
	"strings"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/ir"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
	"gobolt/internal/vm"
)

// loopBinary builds a program with one heavily biased branch in a loop.
func loopBinary(t *testing.T) *ldResult {
	t.Helper()
	f := ir.NewFunc("_start", "m.mir", 1)
	f.SavedRegs = []isa.Reg{isa.RBX}
	loop := f.AddBlock()
	hot := f.AddBlock()
	cold := f.AddBlock()
	latch := f.AddBlock()
	exit := f.AddBlock()
	f.Blocks[0].Ops = []ir.Op{
		{Kind: ir.OpMovImm, Dst: isa.RBX, Imm: 0},
		{Kind: ir.OpMovImm, Dst: isa.RSI, Imm: 0},
	}
	f.Blocks[0].Term = ir.Term{Kind: ir.TermJump, Then: loop.Index}
	loop.Ops = []ir.Op{
		{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RSI},
		{Kind: ir.OpAndImm, Dst: isa.RAX, Imm: 15},
	}
	loop.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondNE, CmpReg: isa.RAX, CmpImm: 0,
		Then: hot.Index, Else: cold.Index} // hot 15/16 of the time
	hot.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.RBX, Imm: 1}}
	hot.Term = ir.Term{Kind: ir.TermJump, Then: latch.Index}
	cold.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.RBX, Imm: 100}}
	cold.Term = ir.Term{Kind: ir.TermJump, Then: latch.Index}
	latch.Ops = []ir.Op{{Kind: ir.OpAddImm, Dst: isa.RSI, Imm: 1}}
	latch.Term = ir.Term{Kind: ir.TermBranch, Cc: isa.CondL, CmpReg: isa.RSI, CmpImm: 100000,
		Then: loop.Index, Else: exit.Index}
	exit.Ops = []ir.Op{{Kind: ir.OpMov, Dst: isa.RAX, Src: isa.RBX}}
	exit.Term = ir.Term{Kind: ir.TermExit}
	p := &ir.Program{Modules: []*ir.Module{{Name: "m", Funcs: []*ir.Func{f}}}}
	p.Finalize()
	objs, err := cc.Compile(p, cc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true})
	if err != nil {
		t.Fatal(err)
	}
	return &ldResult{res}
}

type ldResult struct{ *ld.Result }

func TestLBRProfileCapturesBias(t *testing.T) {
	bin := loopBinary(t)
	fd, m, err := RecordFile(bin.File, Mode{LBR: true, Event: EventCycles, Period: 512}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if !fd.LBR || len(fd.Branches) == 0 {
		t.Fatal("no LBR records")
	}
	// The backward latch branch (hottest taken branch) must dominate.
	var maxCount uint64
	for _, b := range fd.Branches {
		if b.Count > maxCount {
			maxCount = b.Count
		}
	}
	if maxCount < 1000 {
		t.Fatalf("expected heavy branch counts, max %d", maxCount)
	}
}

func TestNonLBRProfileSamplesPCs(t *testing.T) {
	bin := loopBinary(t)
	fd, _, err := RecordFile(bin.File, Mode{LBR: false, Event: EventCycles, Period: 256}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fd.LBR || len(fd.Samples) == 0 {
		t.Fatalf("no PC samples: %+v", fd)
	}
	var total uint64
	for _, s := range fd.Samples {
		if s.At.Sym != "_start" {
			t.Fatalf("sample outside _start: %+v", s)
		}
		total += s.Count
	}
	if total < 100 {
		t.Fatalf("too few samples: %d", total)
	}
}

func TestEventSkidDiffers(t *testing.T) {
	// Non-LBR cycles samples are skewed by skid; instructions samples
	// less so. The distributions must differ.
	sample := func(event Event) map[uint64]uint64 {
		bin := loopBinary(t)
		m, err := vm.New(bin.File)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := Record(m, Mode{LBR: false, Event: event, Period: 256}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return raw.Samples
	}
	cy := sample(EventCycles)
	in := sample(EventInstructions)
	same := true
	for pc, c := range cy {
		if in[pc] != c {
			same = false
			break
		}
	}
	if same && len(cy) == len(in) {
		t.Fatal("cycles and instructions samples identical — skid model inert")
	}
}

func TestDeterministicProfiles(t *testing.T) {
	bin := loopBinary(t)
	fd1, _, err := RecordFile(bin.File, DefaultMode(), 0)
	if err != nil {
		t.Fatal(err)
	}
	bin2 := loopBinary(t)
	fd2, _, err := RecordFile(bin2.File, DefaultMode(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fd1.Branches) != len(fd2.Branches) {
		t.Fatalf("non-deterministic profile: %d vs %d records", len(fd1.Branches), len(fd2.Branches))
	}
	for i := range fd1.Branches {
		if fd1.Branches[i] != fd2.Branches[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestParseEvent(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Event
		ok   bool
	}{
		{"cycles", EventCycles, true},
		{"instructions", EventInstructions, true},
		{"branches", EventBranches, true},
		{"", "", false},
		{"bogus", "", false},
		{"cycle", "", false},
	} {
		got, err := ParseEvent(tc.in)
		if got != tc.want || (err == nil) != tc.ok {
			t.Errorf("ParseEvent(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "cycles, instructions, or branches") {
			t.Errorf("ParseEvent(%q) error does not name the valid values: %v", tc.in, err)
		}
	}
}
