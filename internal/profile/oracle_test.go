package profile

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// refParseData is ParseData as it was before each chunk parsed into its
// window of the result: every chunk appends its records to slices of its
// own, interning names per chunk, and the chunks are concatenated in
// order. Fields are split by strings.Fields and successor lists by
// strings.Split, so the oracle shares only splitChunks and unescape with
// the code under test. It checks what a well-formed profile needs and
// reports any other line as an error without its line number.
func refParseData(data []byte, jobs int) (*Fdata, error) {
	head, body, _ := bytes.Cut(data, []byte{'\n'})
	header := strings.Fields(string(head))
	if len(header) < 3 || header[0] != "boltprofile" || (header[1] != "v1" && header[1] != "v2") {
		return nil, fmt.Errorf("bad header %q", head)
	}
	f := &Fdata{LBR: header[2] == "lbr"}
	for _, h := range header[3:] {
		if v, ok := strings.CutPrefix(h, "event="); ok {
			f.Event = v
		}
	}
	var chunks []refChunk
	for _, c := range splitChunks(string(body), jobs) {
		var out refChunk
		if err := refParseChunk(c, &out); err != nil {
			return nil, err
		}
		chunks = append(chunks, out)
	}
	for _, c := range chunks {
		f.Branches = append(f.Branches, c.branches...)
		f.Samples = append(f.Samples, c.samples...)
		for _, sh := range c.shapes {
			if f.Shapes == nil {
				f.Shapes = map[string]FuncShape{}
			}
			f.Shapes[sh.name] = sh.sh
		}
	}
	return f, nil
}

type refChunk struct {
	branches []Branch
	samples  []Sample
	shapes   []namedShape
}

func refParseChunk(body string, out *refChunk) error {
	syms := map[string]string{}
	sym := func(field string) string {
		s, ok := syms[field]
		if !ok {
			s = unescape(field)
			syms[field] = s
		}
		return s
	}
	var errs []error
	hex := func(s string) uint64 {
		v, err := strconv.ParseUint(s, 16, 64)
		errs = append(errs, err)
		return v
	}
	dec := func(s string) uint64 {
		v, err := strconv.ParseUint(s, 10, 64)
		errs = append(errs, err)
		return v
	}
	var cur *namedShape // the shape being read, while open
	want := 0
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if fields[0] != "b" && cur != nil {
			return fmt.Errorf("shape %q cut short", cur.name)
		}
		switch {
		case fields[0] == "s" && len(fields) == 3:
			want = int(dec(fields[2]))
			cur = &namedShape{name: unescape(fields[1]), sh: FuncShape{Blocks: make([]BlockShape, 0, want)}}
		case fields[0] == "b" && len(fields) == 4 && cur != nil:
			b := BlockShape{Off: hex(fields[1]), Hash: hex(fields[2])}
			if fields[3] != "-" {
				for _, tok := range strings.Split(fields[3], ",") {
					v, err := strconv.Atoi(tok)
					if err == nil && v < 0 {
						err = errors.New("negative successor")
					}
					errs = append(errs, err)
					b.Succs = append(b.Succs, v)
				}
			}
			cur.sh.Blocks = append(cur.sh.Blocks, b)
		case fields[0] == "1" && len(fields) == 8:
			out.branches = append(out.branches, Branch{
				From:     Loc{sym(fields[1]), hex(fields[2])},
				To:       Loc{sym(fields[4]), hex(fields[5])},
				Mispreds: dec(fields[6]),
				Count:    dec(fields[7]),
			})
		case fields[0] == "2" && len(fields) == 4:
			out.samples = append(out.samples, Sample{At: Loc{sym(fields[1]), hex(fields[2])}, Count: dec(fields[3])})
		default:
			return fmt.Errorf("bad line %q", line)
		}
		if cur != nil && len(cur.sh.Blocks) == want {
			out.shapes = append(out.shapes, *cur)
			cur = nil
		}
	}
	if cur != nil {
		return fmt.Errorf("shape %q cut short", cur.name)
	}
	return errors.Join(errs...)
}

// windowLayouts are well-formed profiles laid out to catch a chunk's
// record count and its parse disagreeing about which lines are records.
func windowLayouts() map[string]string {
	var shapesFirst, blankShapes strings.Builder
	shapesFirst.WriteString("boltprofile v2 nolbr event=c\n")
	blankShapes.WriteString("boltprofile v2 lbr event=c\n")
	for i := range 60 {
		fmt.Fprintf(&shapesFirst, "s f%d 2\nb 0 %x 1\nb 8 %x -\n", i, i, i+1)
		fmt.Fprintf(&blankShapes, "s g%d 3\n\nb 0 %x 1,2\n \n\t\nb 8 1 -\n\r\nb 10 2 -\n\n", i, i)
		fmt.Fprintf(&blankShapes, "1 g%d 0 1 g%d 8 0 %d\n", i, i, i+1)
	}
	for i := range 30 {
		fmt.Fprintf(&shapesFirst, "2 f%d %x %d\n", i, i*4, i+1)
	}
	var crlf strings.Builder
	crlf.WriteString("boltprofile v1 lbr event=c\r\n")
	for i := range 40 {
		fmt.Fprintf(&crlf, "  1 a%d %x 1\tb 0 0 %d\r\n\t2 a%d 4 %d\r\n \t\r\n", i, i, i+1, i, i)
	}
	var names strings.Builder
	names.WriteString("boltprofile v1 lbr event=c\n")
	for i := range 40 {
		fmt.Fprintf(&names, "1 \\x20lead%d %x 1 __empty__ 0 0 %d\n", i, i, i+1)
		fmt.Fprintf(&names, "1 \\x5f_empty__ %x 1 \\x20 0 1 %d\n", i, i+1)
		fmt.Fprintf(&names, "2 mid\\x20dle\\x5c %x %d\n2 __empty__ 0 1\n", i, i+1)
	}
	return map[string]string{
		"shapes-first":          shapesFirst.String(),
		"blank-lines-in-shapes": blankShapes.String(),
		"leading-blanks-crlf":   crlf.String(),
		"escaped-names":         names.String(),
	}
}

// TestParseDataMatchesReference holds ParseData to refParseData at jobs
// 1–4 on the parse corpus, generated profiles and windowLayouts: the
// whole Fdata must be DeepEqual, so every record sits in its own slot of
// one slice per kind, none is lost or left zero. The layouts must
// include a chunk with no records at some jobs value.
func TestParseDataMatchesReference(t *testing.T) {
	inputs := map[string]string{}
	for i, in := range parseCorpus {
		inputs[fmt.Sprintf("corpus-%d", i)] = in
	}
	for seed := int64(1); seed <= 4; seed++ {
		inputs[fmt.Sprintf("gen-%d", seed)] = genFdata(seed, 20, 400)
	}
	emptyChunk := false
	for name, in := range windowLayouts() {
		inputs[name] = in
		_, body, _ := strings.Cut(in, "\n")
		for jobs := 2; jobs <= 4; jobs++ {
			for _, c := range splitChunks(body, jobs) {
				if nb, ns := countRecords(c); nb+ns == 0 {
					emptyChunk = true
				}
			}
		}
	}
	if !emptyChunk {
		t.Error("no layout has a chunk without records")
	}
	for name, in := range inputs {
		CheckParseDataMatchesReference(t, name, []byte(in))
	}
}

// CheckParseDataMatchesReference compares ParseData with refParseData at
// jobs 1–4. It is exported for the preset tests, which build their
// profiles with packages that import this one.
func CheckParseDataMatchesReference(t *testing.T, name string, in []byte) {
	t.Helper()
	for jobs := 1; jobs <= 4; jobs++ {
		want, err := refParseData(in, jobs)
		if err != nil {
			t.Fatalf("%s jobs %d: reference parse: %v", name, jobs, err)
		}
		got, err := ParseData(context.Background(), in, jobs)
		if err != nil {
			t.Fatalf("%s jobs %d: %v", name, jobs, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s jobs %d: ParseData differs from the reference parse", name, jobs)
		}
	}
}
