package profile

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

var parseCorpus = []string{
	// Mirrors the FuzzProfileParse seed corpus.
	"boltprofile v1 lbr event=cycles\n1 f 10 1 g 0 2 7\n2 f 4 1\n",
	"boltprofile v2 lbr event=e\ns f 2\nb 0 dead 1\nb 10 beef -\n1 f 0 1 f 10 0 3\n",
	"boltprofile v1 nolbr event=instructions\n2 __empty__ 0 1\n",
	`boltprofile v1 lbr` + "\n" + `1 a\x20b 1 1 \x5c 2 0 1` + "\n",
	"boltprofile v2 nolbr\ns g 0\n",
	// Blank lines inside a shape group (legal) and between records.
	"boltprofile v2 lbr event=c\ns f 3\nb 0 1 1,2\n\nb 8 2 -\n\nb 10 3 -\n\n1 f 0 1 f 8 0 5\n",
	// No trailing newline on the final record.
	"boltprofile v1 lbr event=c\n1 a 0 1 b 0 0 1\n2 a 4 9",
	// Duplicate shape for one function: last wins in serial order.
	"boltprofile v2 nolbr\ns f 1\nb 0 11 -\ns f 1\nb 0 22 -\n2 f 0 3\n",
	// Header only.
	"boltprofile v1 lbr event=cycles\n",
	"boltprofile v1 lbr event=cycles",
}

// genFdata builds a deterministic pseudo-random profile text with shapes,
// hostile symbol names, blank lines, and interleaved records.
func genFdata(seed int64, funcs, records int) string {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, funcs)
	for i := range names {
		switch i % 5 {
		case 0:
			names[i] = fmt.Sprintf("func_%d", i)
		case 1:
			names[i] = fmt.Sprintf("ns::tmpl<%d, true>::op()", i)
		case 2:
			names[i] = fmt.Sprintf("with space %d", i)
		case 3:
			names[i] = "" // __empty__ sentinel path
		default:
			names[i] = fmt.Sprintf("bs\\x%d", i)
		}
	}
	var sb strings.Builder
	sb.WriteString("boltprofile v2 lbr event=cycles\n")
	for i, name := range names {
		if i%3 != 0 {
			continue
		}
		nb := 1 + rng.Intn(6)
		fmt.Fprintf(&sb, "s %s %d\n", string(appendEscaped(nil, name)), nb)
		for b := 0; b < nb; b++ {
			succs := "-"
			if b+1 < nb {
				succs = fmt.Sprintf("%d", b+1)
			}
			fmt.Fprintf(&sb, "b %x %x %s\n", b*16, rng.Uint64(), succs)
			if rng.Intn(4) == 0 {
				sb.WriteString("\n") // blank line inside the shape group
			}
		}
	}
	for i := 0; i < records; i++ {
		from := names[rng.Intn(len(names))]
		to := names[rng.Intn(len(names))]
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&sb, "2 %s %x %d\n", string(appendEscaped(nil, from)),
				rng.Intn(256), 1+rng.Intn(100))
			continue
		}
		fmt.Fprintf(&sb, "1 %s %x 1 %s %x %d %d\n",
			string(appendEscaped(nil, from)), rng.Intn(256),
			string(appendEscaped(nil, to)), rng.Intn(256),
			rng.Intn(10), 1+rng.Intn(1000))
	}
	return sb.String()
}

// TestParallelParseMatchesSerial checks that chunked parallel parsing is
// observationally identical to serial parsing for every chunk count:
// byte-identical Write output, equal TotalBranchCount, and deepequal
// records/shapes. Run under -race this also exercises the worker pool.
func TestParallelParseMatchesSerial(t *testing.T) {
	inputs := append([]string{}, parseCorpus...)
	for seed := int64(1); seed <= 4; seed++ {
		inputs = append(inputs, genFdata(seed, 20, 400))
	}
	for i, in := range inputs {
		serial, err := ParseData(context.Background(), []byte(in), 1)
		if err != nil {
			t.Fatalf("input %d: serial parse failed: %v", i, err)
		}
		var want bytes.Buffer
		if err := serial.Write(&want); err != nil {
			t.Fatalf("input %d: Write: %v", i, err)
		}
		for _, jobs := range []int{2, 3, 4, 8, 16} {
			got, err := ParseData(context.Background(), []byte(in), jobs)
			if err != nil {
				t.Fatalf("input %d jobs %d: parse failed: %v", i, jobs, err)
			}
			if got.TotalBranchCount() != serial.TotalBranchCount() {
				t.Fatalf("input %d jobs %d: TotalBranchCount %d, serial %d",
					i, jobs, got.TotalBranchCount(), serial.TotalBranchCount())
			}
			if !reflect.DeepEqual(got.Branches, serial.Branches) ||
				!reflect.DeepEqual(got.Samples, serial.Samples) ||
				!reflect.DeepEqual(got.Shapes, serial.Shapes) {
				t.Fatalf("input %d jobs %d: records drift from serial parse", i, jobs)
			}
			var buf bytes.Buffer
			if err := got.Write(&buf); err != nil {
				t.Fatalf("input %d jobs %d: Write: %v", i, jobs, err)
			}
			if !bytes.Equal(buf.Bytes(), want.Bytes()) {
				t.Fatalf("input %d jobs %d: Write output differs from serial parse", i, jobs)
			}
		}
	}
}

// TestParallelParseErrorLineNumbers checks that diagnostics carry the
// same absolute line number for every chunk count, including errors that
// land mid-chunk and shape groups left open at a chunk boundary.
func TestParallelParseErrorLineNumbers(t *testing.T) {
	pad := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "1 f%d %x 1 g%d 0 0 %d\n", i, i%64, i, i+1)
		}
		return sb.String()
	}
	cases := []struct {
		name string
		in   string
		want string // substring of the expected error
	}{
		{
			"bad-record-mid-file",
			"boltprofile v1 lbr event=c\n" + pad(100) + "X bogus\n" + pad(100),
			"line 102: unknown record \"X\"",
		},
		{
			"bad-count-mid-file",
			"boltprofile v1 lbr event=c\n" + pad(50) + "1 a 0 1 b 0 0 zz\n" + pad(150),
			"line 52",
		},
		{
			"underfilled-shape",
			"boltprofile v2 lbr event=c\n" + pad(80) + "s f 5\nb 0 1 -\n" + pad(120),
			"line 84: shape has 1 blocks, declared 5",
		},
		{
			"truncated-shape-at-eof",
			"boltprofile v2 lbr event=c\n" + pad(200) + "s f 3\nb 0 1 -\n",
			`truncated shape for "f" (1 of 3 blocks)`,
		},
	}
	for _, tc := range cases {
		var serialMsg string
		for _, jobs := range []int{1, 2, 3, 4, 8} {
			_, err := ParseData(context.Background(), []byte(tc.in), jobs)
			if err == nil {
				t.Fatalf("%s jobs %d: parse unexpectedly succeeded", tc.name, jobs)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s jobs %d: error %q does not contain %q", tc.name, jobs, err, tc.want)
			}
			if jobs == 1 {
				serialMsg = err.Error()
			} else if err.Error() != serialMsg {
				t.Fatalf("%s jobs %d: error %q differs from serial %q", tc.name, jobs, err, serialMsg)
			}
		}
	}
}

// TestParseCancelled checks that the caller's context reaches the chunk
// pool: an already-cancelled context fails the parse with
// context.Canceled at every jobs value, through both entry points.
func TestParseCancelled(t *testing.T) {
	in := []byte(genFdata(3, 20, 400))
	body := in[bytes.IndexByte(in, '\n')+1:]
	if n := len(splitChunks(body, 4)); n < 2 {
		t.Fatalf("input splits into %d chunks at jobs 4, want more than one", n)
	}
	cx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, jobs := range []int{1, 4} {
		if _, err := ParseData(cx, in, jobs); !errors.Is(err, context.Canceled) {
			t.Errorf("ParseData jobs %d: got %v, want context.Canceled", jobs, err)
		}
	}
	if _, err := Parse(cx, bytes.NewReader(in)); !errors.Is(err, context.Canceled) {
		t.Errorf("Parse: got %v, want context.Canceled", err)
	}
}

// TestParseReaderMatchesParseData checks the io.Reader entry point
// delegates to the chunked parser with identical results.
func TestParseReaderMatchesParseData(t *testing.T) {
	in := genFdata(7, 15, 300)
	a, err := Parse(context.Background(), strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseData(context.Background(), []byte(in), 4)
	if err != nil {
		t.Fatal(err)
	}
	var wa, wb bytes.Buffer
	if err := a.Write(&wa); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
		t.Fatal("Parse(reader) output differs from ParseData")
	}
}
