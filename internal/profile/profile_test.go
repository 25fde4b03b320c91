package profile

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gobolt/internal/hfsort"
)

func TestWriteParseRoundTrip(t *testing.T) {
	b := NewBuilder(true, "cycles")
	b.AddBranchN(Loc{"foo", 0x10}, Loc{"foo", 0x40}, 1, 1)
	b.AddBranchN(Loc{"foo", 0x10}, Loc{"foo", 0x40}, 1, 0)
	b.AddBranchN(Loc{"bar", 0x8}, Loc{"baz", 0}, 100, 7)
	fd := b.Build()

	var buf bytes.Buffer
	if err := fd.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.LBR || got.Event != "cycles" {
		t.Fatalf("header lost: %+v", got)
	}
	if len(got.Branches) != 2 {
		t.Fatalf("got %d branches", len(got.Branches))
	}
	// Sorted: bar before foo.
	if got.Branches[0].From.Sym != "bar" || got.Branches[0].Count != 100 || got.Branches[0].Mispreds != 7 {
		t.Errorf("bar record corrupted: %+v", got.Branches[0])
	}
	if got.Branches[1].Count != 2 || got.Branches[1].Mispreds != 1 {
		t.Errorf("foo record corrupted: %+v", got.Branches[1])
	}
}

func TestNonLBRRoundTrip(t *testing.T) {
	b := NewBuilder(false, "instructions")
	b.AddSampleN(Loc{"f", 4}, 10)
	b.AddSampleN(Loc{"g", 0}, 1)
	fd := b.Build()
	var buf bytes.Buffer
	if err := fd.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.LBR || len(got.Samples) != 2 {
		t.Fatalf("bad parse: %+v", got)
	}
	if got.Samples[0].At.Sym != "f" || got.Samples[0].Count != 10 {
		t.Errorf("sample corrupted: %+v", got.Samples[0])
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"",
		"not a profile\n",
		"boltprofile v3 lbr\n",
		"boltprofile v1 lbr\n1 f 10 1 g\n", // short line
		"boltprofile v1 lbr\nX f 10\n",
		"boltprofile v2 lbr\ns f 2\nb 0 1 -\n",          // truncated shape
		"boltprofile v2 lbr\nb 0 1 -\n",                 // block outside shape
		"boltprofile v2 lbr\ns f 1\nb 0 1 2,x\n",        // bad successor list
		"boltprofile v2 lbr\ns f 1\n1 f 10 1 f 0 0 1\n", // record interrupts shape
	} {
		if _, err := Parse(context.Background(), strings.NewReader(s)); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", s)
		}
	}
}

func TestSymbolEscaping(t *testing.T) {
	b := NewBuilder(true, "cycles")
	b.AddBranchN(Loc{"fn with space", 1}, Loc{"other", 2}, 1, 0)
	var buf bytes.Buffer
	if err := b.Build().Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Branches[0].From.Sym != "fn with space" {
		t.Errorf("escaping broken: %q", got.Branches[0].From.Sym)
	}
}

// TestSymbolEscapingHostile is the regression test for the escape
// round-trip bug: symbols containing a literal `\x20`, the escape
// character itself, whitespace/control bytes, or the `__empty__` sentinel
// used to corrupt on Write→Parse.
func TestSymbolEscapingHostile(t *testing.T) {
	hostile := []string{
		`lit\x20eral`, // literal backslash-x-2-0, NOT a space
		`back\slash`,
		`\x5c`,
		"__empty__",
		"_x5f_empty__",
		"tab\there",
		"nl\nthere",
		"a b c",
		`\`,
		`\\`,
		"mixed \\x20 and space",
		"nb\u00a0space", // Unicode whitespace: Fields splits on it too
		"ideo\u3000space",
		"utf8\u00b7sym",
	}
	for _, sym := range hostile {
		b := NewBuilder(true, "e")
		b.AddBranchN(Loc{sym, 4}, Loc{"plain", 0}, 7, 1)
		var buf bytes.Buffer
		if err := b.Build().Write(&buf); err != nil {
			t.Fatalf("%q: %v", sym, err)
		}
		got, err := Parse(context.Background(), &buf)
		if err != nil {
			t.Fatalf("%q: %v", sym, err)
		}
		if len(got.Branches) != 1 || got.Branches[0].From.Sym != sym {
			t.Errorf("round trip corrupted %q -> %q", sym, got.Branches[0].From.Sym)
		}
	}
}

func TestShapesRoundTrip(t *testing.T) {
	fd := &Fdata{LBR: true, Event: "cycles",
		Branches: []Branch{{From: Loc{"f", 0x10}, To: Loc{"f", 0x20}, Count: 3}},
		Shapes: map[string]FuncShape{
			"f": {Blocks: []BlockShape{
				{Off: 0, Hash: 0xDEADBEEF, Succs: []int{1, 2}},
				{Off: 0x10, Hash: 0x1234, Succs: []int{2}},
				{Off: 0x20, Hash: 0x5678},
			}},
			"g with space": {Blocks: []BlockShape{{Off: 0, Hash: 1}}},
		},
	}
	var buf bytes.Buffer
	if err := fd.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "boltprofile v2 ") {
		t.Fatalf("shapes did not trigger v2 header: %q", buf.String()[:30])
	}
	got, err := Parse(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Shapes) != 2 {
		t.Fatalf("got %d shapes", len(got.Shapes))
	}
	f := got.Shapes["f"]
	if len(f.Blocks) != 3 || f.Blocks[0].Hash != 0xDEADBEEF ||
		f.Blocks[1].Off != 0x10 || len(f.Blocks[0].Succs) != 2 || f.Blocks[0].Succs[1] != 2 {
		t.Fatalf("shape corrupted: %+v", f)
	}
	if f.Blocks[2].Succs != nil {
		t.Fatalf("empty successor list corrupted: %+v", f.Blocks[2])
	}
	if _, ok := got.Shapes["g with space"]; !ok {
		t.Fatal("escaped shape name lost")
	}
	if len(got.Branches) != 1 || got.Branches[0].Count != 3 {
		t.Fatalf("branch records lost alongside shapes: %+v", got.Branches)
	}
}

func TestMerge(t *testing.T) {
	mk := func(count uint64) *Fdata {
		b := NewBuilder(true, "cycles")
		b.AddBranchN(Loc{"f", 1}, Loc{"f", 9}, count, count/2)
		b.AddBranchN(Loc{"g", 2}, Loc{"h", 0}, 1, 0)
		return b.Build()
	}
	a, b := mk(10), mk(32)
	a.Shapes = map[string]FuncShape{
		"f": {Blocks: []BlockShape{{Off: 0, Hash: 42, Succs: []int{1}}}},
		"g": {Blocks: []BlockShape{{Off: 0, Hash: 7}}},
	}
	b.Shapes = map[string]FuncShape{
		"f": {Blocks: []BlockShape{{Off: 0, Hash: 42, Succs: []int{1}}}},
	}
	got, err := Merge([]*Fdata{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalBranchCount() != 44 {
		t.Fatalf("merged total = %d, want 44", got.TotalBranchCount())
	}
	if len(got.Branches) != 2 {
		t.Fatalf("merged records = %d, want 2 (aggregated)", len(got.Branches))
	}
	if got.Branches[0].From.Sym != "f" || got.Branches[0].Count != 42 || got.Branches[0].Mispreds != 21 {
		t.Fatalf("aggregation wrong: %+v", got.Branches[0])
	}
	if len(got.Shapes) != 2 || got.Shapes["f"].Blocks[0].Hash != 42 {
		t.Fatalf("shape merge wrong: %+v", got.Shapes)
	}

	if _, err := Merge(nil); err == nil {
		t.Fatal("empty merge unexpectedly succeeded")
	}
	nolbr := NewBuilder(false, "cycles").Build()
	if _, err := Merge([]*Fdata{a, nolbr}); err == nil {
		t.Fatal("mixed-mode merge unexpectedly succeeded")
	}
	instr := NewBuilder(true, "instructions").Build()
	if _, err := Merge([]*Fdata{a, instr}); err == nil {
		t.Fatal("mixed-event merge unexpectedly succeeded")
	}
	// Shards recorded on different builds (conflicting shapes) must be
	// rejected, not silently merged under one build's shapes.
	c := mk(1)
	c.Shapes = map[string]FuncShape{"f": {Blocks: []BlockShape{{Off: 0, Hash: 99, Succs: []int{1}}}}}
	if _, err := Merge([]*Fdata{a, c}); err == nil {
		t.Fatal("conflicting-shape merge unexpectedly succeeded")
	}
}

// weights reads a call graph back by name: node weights and summed edges.
func weights(g *hfsort.Graph) (map[string]uint64, map[[2]string]uint64) {
	nodes, edges := map[string]uint64{}, map[[2]string]uint64{}
	for i := 0; i < g.N; i++ {
		nodes[g.Names[i]] = g.Weight[i]
	}
	for _, e := range g.Edges {
		edges[[2]string{g.Names[e.From], g.Names[e.To]}] += e.Weight
	}
	return nodes, edges
}

func TestBuildCallGraphLBR(t *testing.T) {
	fd := &Fdata{LBR: true, Branches: []Branch{
		{From: Loc{"a", 0x10}, To: Loc{"b", 0}, Count: 50},   // call
		{From: Loc{"a", 0x20}, To: Loc{"a", 0x5}, Count: 99}, // intra
		{From: Loc{"b", 0x8}, To: Loc{"a", 0x14}, Count: 50}, // return
		{From: Loc{"c", 0x4}, To: Loc{"b", 0}, Count: 10},    // call
		{From: Loc{"a", 0x30}, To: Loc{"b", 0}, Count: 5},    // call, second site
	}}
	nodes, edges := weights(BuildCallGraph(fd))
	if edges[[2]string{"a", "b"}] != 55 || edges[[2]string{"c", "b"}] != 10 {
		t.Fatalf("edges wrong: %v", edges)
	}
	if nodes["b"] != 65 {
		t.Fatalf("callee weight wrong: %v", nodes)
	}
	// A function that only made calls is a node of weight 0.
	if w, ok := nodes["c"]; !ok || w != 0 {
		t.Fatalf("caller node wrong: %v", nodes)
	}
	if _, ok := edges[[2]string{"b", "a"}]; ok {
		t.Fatal("return treated as call")
	}
}

func TestBuildCallGraphNonLBR(t *testing.T) {
	fd := &Fdata{LBR: false, Samples: []Sample{
		{At: Loc{"a", 0x10}, Count: 30},
		{At: Loc{"a", 0x50}, Count: 5},
	}}
	nodes, _ := weights(BuildCallGraph(fd))
	if nodes["a"] != 35 {
		t.Fatalf("node weight wrong: %v", nodes)
	}
}

func TestRoundTripProperty(t *testing.T) {
	check := func(sym1, sym2 string, off1, off2 uint16, count, mispred uint8) bool {
		if sym1 == "" || sym2 == "" {
			return true
		}
		b := NewBuilder(true, "e")
		b.AddBranchN(Loc{sym1, uint64(off1)}, Loc{sym2, uint64(off2)},
			uint64(count)+1, uint64(mispred))
		var buf bytes.Buffer
		if err := b.Build().Write(&buf); err != nil {
			return false
		}
		got, err := Parse(context.Background(), &buf)
		if err != nil || len(got.Branches) != 1 {
			return false
		}
		r := got.Branches[0]
		return r.From.Off == uint64(off1) && r.To.Off == uint64(off2) &&
			r.Count == uint64(count)+1 && r.Mispreds == uint64(mispred)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestParseSuccs pins the in-place successor-list scanner: same values
// and same rejections as the strings.Split + strconv.Atoi it replaced,
// and lists cut from one slab that cannot grow into each other.
func TestParseSuccs(t *testing.T) {
	var slab []int
	for _, tc := range []struct {
		in   string
		want []int
		bad  bool
	}{
		{in: "-"},
		{in: "0", want: []int{0}},
		{in: "0,2,5", want: []int{0, 2, 5}},
		{in: "+7,0012", want: []int{7, 12}},
		{in: "00000000000000000003", want: []int{3}},
		{in: "", bad: true},
		{in: "1,", bad: true},
		{in: ",1", bad: true},
		{in: "1,,2", bad: true},
		{in: "-1", bad: true},
		{in: "1,x", bad: true},
		{in: "99999999999999999999", bad: true},
	} {
		got, err := parseSuccs(tc.in, &slab)
		if tc.bad != (err != nil) {
			t.Errorf("%q: err = %v, want error %v", tc.in, err, tc.bad)
			continue
		}
		if !slices.Equal(got, tc.want) || (tc.want == nil) != (got == nil) {
			t.Errorf("%q: got %v, want %v", tc.in, got, tc.want)
		}
	}
	a, _ := parseSuccs("1,2", &slab)
	b, _ := parseSuccs("3", &slab)
	if a = append(a, 9); b[0] != 3 {
		t.Errorf("appending to one list overwrote its slab neighbour: %v", b)
	}
	big := strings.Repeat("7,", succSlabLen) + "7"
	if c, err := parseSuccs(big, &slab); err != nil || len(c) != succSlabLen+1 || a[0] != 1 {
		t.Errorf("list longer than a slab: len %d err %v, earlier cut %v", len(c), err, a)
	}
}

// TestSplitFieldsMatchesStringsFields: the field splitter answers
// ASCII from a table and decodes only bytes past it, so it must still cut
// exactly where strings.Fields does — at U+0085 and U+00A0 inside a name,
// and not at a lone 0x85 or 0xA0 byte, which is invalid UTF-8.
func TestSplitFieldsMatchesStringsFields(t *testing.T) {
	for _, line := range []string{
		"",
		"   \t ",
		"1 main 0 1 foo 1c 0 7",
		"\tf\vg\fh\ri\n",
		"1 na\u0085me 0",
		"1 na\u00a0me  0",
		" lead trail\u0085",
		"1 na\x85me na\xa0me \xc2",
		"1 \u65e5\u3000\u8a9e 0",
		"x y\u200bz",
	} {
		got := splitFields(line, nil)
		if want := strings.Fields(line); !slices.Equal(got, want) {
			t.Errorf("splitFields(%q) = %q, want %q", line, got, want)
		}
	}
}
