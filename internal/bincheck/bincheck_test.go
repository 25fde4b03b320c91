package bincheck

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"gobolt/internal/elfx"
)

func TestFindingString(t *testing.T) {
	for _, tc := range []struct {
		f    Finding
		want string
	}{
		{
			Finding{Rule: "branch-target", Severity: SeverityError,
				Func: "f", Addr: 0x401000, Message: "target escapes"},
			"error: branch-target f @ 0x401000: target escapes",
		},
		{
			Finding{Rule: "bat-parse", Severity: SeverityError, Message: "truncated"},
			"error: bat-parse: truncated",
		},
		{
			Finding{Rule: "jt-unbounded", Severity: SeverityWarning,
				Func: "g", Message: "no bound"},
			"warning: jt-unbounded g: no bound",
		},
	} {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestResultJSONAndTally(t *testing.T) {
	var w worker
	w.warnf("bat-cover", "g", 0x30, "no anchors")
	w.errorf("sym-entry", "", 0x10, "entry off boundary")
	w.errorf("branch-target", "f", 0x20, "bad target")
	r := &Result{Findings: w.findings}
	r.finish()

	if r.Errors != 2 || r.Warnings != 1 {
		t.Fatalf("tally = %d errors, %d warnings, want 2, 1", r.Errors, r.Warnings)
	}
	if r.Ok() {
		t.Error("Ok() = true with error findings")
	}
	// finish sorts by address, then rule.
	for i, want := range []string{"sym-entry", "branch-target", "bat-cover"} {
		if got := r.Findings[i].Rule; got != want {
			t.Errorf("Findings[%d].Rule = %s, want %s", i, got, want)
		}
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back.Findings) != 3 || back.Errors != 2 || back.Warnings != 1 {
		t.Errorf("round-trip lost data: %+v", back)
	}
}

// TestFindingsTotalOrder: findings that tie on address, rule and message
// still come out in one order, whatever order the workers' lists were
// merged in.
func TestFindingsTotalOrder(t *testing.T) {
	tied := []Finding{
		{Rule: "r", Severity: SeverityError, Func: "a", Addr: 1, Message: "m"},
		{Rule: "r", Severity: SeverityWarning, Func: "a", Addr: 1, Message: "m"},
		{Rule: "r", Severity: SeverityError, Func: "b", Addr: 1, Message: "m"},
		{Rule: "r", Severity: SeverityError, Func: "b", Addr: 1, Message: "l"},
		{Rule: "q", Severity: SeverityError, Func: "z", Addr: 1, Message: "z"},
		{Rule: "z", Severity: SeverityError, Func: "z", Addr: 0, Message: "z"},
	}
	want := []Finding{tied[5], tied[4], tied[3], tied[0], tied[1], tied[2]}
	for rot := range tied {
		r := &Result{Findings: append(append([]Finding{}, tied[rot:]...), tied[:rot]...)}
		r.finish()
		if !slices.Equal(r.Findings, want) {
			t.Fatalf("rotation %d sorted to %v, want %v", rot, r.Findings, want)
		}
		if r.Errors != 5 || r.Warnings != 1 {
			t.Fatalf("rotation %d: tally = %d errors, %d warnings", rot, r.Errors, r.Warnings)
		}
	}
}

// TestBoundaryBitset drives index and disassemble over a hand-built
// section of one-byte instructions with one five-byte jump in it, at the
// sizes where a bitset goes wrong: one bit, one short of a word, a word,
// one over, symbols that leave the section or do not decode, and two
// symbols over the same bytes that must not share bits.
func TestBoundaryBitset(t *testing.T) {
	const base = 0x1000
	code := bytes.Repeat([]byte{0x90}, 256) // nop
	code[203] = 0xE9                        // jmp rel32 over [203,208), its displacement four more nops
	code[250] = 0x06                        // no such opcode
	f := &elfx.File{Sections: []*elfx.Section{
		{Name: ".text", Flags: elfx.SHFExecinstr, Addr: base, Data: code},
	}}
	fn := func(name string, off, size uint64) {
		f.Symbols = append(f.Symbols, elfx.Symbol{Name: name, Value: base + off, Size: size, Type: elfx.STTFunc, Section: ".text"})
	}
	fn("one", 0, 1)
	fn("w63", 1, 63)
	fn("w64", 64, 64)
	fn("w65", 128, 65)
	fn("jump", 200, 10)   // boundaries 0,1,2,3,8,9
	fn("inside", 205, 10) // starts in the jump's displacement: every byte a boundary
	fn("undecodable", 248, 4)
	fn("outside", 252, 8) // leaves the section
	fn("wrapping", 8, ^uint64(0)-base)

	c := &checker{f: f, res: &Result{}}
	c.index()
	w := &worker{checker: c}
	for _, fr := range c.frags {
		w.disassemble(fr)
	}

	every := func(uint32) bool { return true }
	for _, tc := range []struct {
		name     string
		broken   bool
		boundary func(off uint32) bool
	}{
		{"one", false, every},
		{"w63", false, every},
		{"w64", false, every},
		{"w65", false, every},
		{"jump", false, func(off uint32) bool { return off <= 3 || off >= 8 }},
		{"inside", false, every},
		{"undecodable", true, func(off uint32) bool { return off < 2 }}, // the prefix that did decode
		{"outside", true, func(uint32) bool { return false }},
		{"wrapping", true, func(uint32) bool { return false }},
	} {
		fr := c.byName[tc.name]
		if fr.broken != tc.broken {
			t.Errorf("%s: broken = %v, want %v", tc.name, fr.broken, tc.broken)
		}
		for off := uint32(0); off < 2048; off++ {
			want := uint64(off) < fr.size && off < 256 && tc.boundary(off)
			if got := fr.isBoundary(off); got != want {
				t.Errorf("%s: isBoundary(%d) = %v, want %v", tc.name, off, got, want)
			}
		}
		for _, off := range []uint32{1 << 31, ^uint32(0)} {
			if fr.isBoundary(off) {
				t.Errorf("%s: isBoundary(%#x) = true", tc.name, off)
			}
		}
	}
	if got := c.byName["jump"].sites; len(got) != 1 || got[0].off != 3 || got[0].size != 5 {
		t.Errorf("jump: sites = %+v, want the one jmp at +3", got)
	}
	if len(w.findings) != 1 || w.findings[0].Rule != "disasm" || w.findings[0].Func != "undecodable" {
		t.Errorf("findings = %v, want one disasm finding on the undecodable fragment", w.findings)
	}
}

func TestCheckRejectsGarbage(t *testing.T) {
	if _, err := Check([]byte("not an ELF image")); err == nil {
		t.Error("Check accepted a non-ELF image")
	}
}

// TestMutationsCoverDistinctRules keeps the corruption matrix honest:
// every mutation names a rule from the catalogue, and the matrix spans
// the code, CFI, LSDA, BAT, and symbol rule families.
func TestMutationsCoverDistinctRules(t *testing.T) {
	families := map[string]bool{}
	for _, m := range Mutations() {
		if m.Name == "" || m.Rule == "" || m.Apply == nil {
			t.Errorf("incomplete mutation %+v", m)
		}
		families[ruleFamily(m.Rule)] = true
	}
	for _, fam := range []string{"code", "cfi", "lsda", "bat", "sym"} {
		if !families[fam] {
			t.Errorf("no mutation targets the %s rule family", fam)
		}
	}
}

func ruleFamily(rule string) string {
	switch rule {
	case "disasm", "branch-target", "jt-target", "jt-unbounded":
		return "code"
	case "cfi-bounds", "cfi-cover", "cfi-decode", "cfi-split":
		return "cfi"
	case "lsda-bounds", "lsda-pad":
		return "lsda"
	case "bat-parse", "bat-range", "bat-monotone", "bat-cover", "bat-translate":
		return "bat"
	case "sym-overlap", "sym-bounds", "sym-entry":
		return "sym"
	case "reloc-bounds":
		return "reloc"
	}
	return "unknown"
}
