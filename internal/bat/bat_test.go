package bat

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

func sampleTable() *Table {
	t := &Table{}
	fi := t.AddFunc("alpha", 0x80)
	t.AddRange(Range{FuncIdx: fi, Start: 0x401000, Size: 0x30, Entries: []Entry{
		{OutOff: 0x00, InOff: 0x00},
		{OutOff: 0x08, InOff: 0x10}, // block moved forward
		{OutOff: 0x10, InOff: 0x08}, // and one moved back (negative delta)
		{OutOff: 0x20, InOff: 0x40},
	}})
	t.AddRange(Range{FuncIdx: fi, Start: 0x402000, Size: 0x10, Cold: true, Entries: []Entry{
		{OutOff: 0x00, InOff: 0x60},
		{OutOff: 0x06, InOff: 0x68},
	}})
	gi := t.AddFunc("beta", 0x20)
	t.AddRange(Range{FuncIdx: gi, Start: 0x401040, Size: 0x10, Entries: []Entry{
		{OutOff: 0x00, InOff: 0x00},
	}})
	return t
}

func TestEncodeParseRoundTrip(t *testing.T) {
	tab := sampleTable()
	enc := tab.Encode()
	got, err := Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Funcs, tab.Funcs) {
		t.Fatalf("funcs diverge: %+v vs %+v", got.Funcs, tab.Funcs)
	}
	if !reflect.DeepEqual(got.Ranges, tab.Ranges) {
		t.Fatalf("ranges diverge:\n got %+v\nwant %+v", got.Ranges, tab.Ranges)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a := sampleTable().Encode()
	b := sampleTable().Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same table differ")
	}
	// Encoding an already-encoded-and-parsed table is also stable.
	parsed, err := Parse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parsed.Encode(), a) {
		t.Fatal("re-encoding after parse differs")
	}
}

func TestTranslate(t *testing.T) {
	tab := sampleTable()
	cases := []struct {
		addr   uint64
		fn     string
		off    uint64
		wantOK bool
	}{
		{0x401000, "alpha", 0x00, true},
		{0x401008, "alpha", 0x10, true},
		{0x401010, "alpha", 0x08, true},
		{0x40100c, "alpha", 0x10, true}, // mid-anchor clamps back
		{0x401025, "alpha", 0x40, true}, // past last anchor, inside range
		{0x402000, "alpha", 0x60, true}, // cold fragment
		{0x402006, "alpha", 0x68, true}, // cold fragment second anchor
		{0x401040, "beta", 0x00, true},  // second function
		{0x400fff, "", 0, false},        // before every range
		{0x401030, "", 0, false},        // gap between ranges
		{0x402010, "", 0, false},        // past the cold range
		{0x500000, "", 0, false},        // far away
	}
	for _, c := range cases {
		fn, off, ok := tab.Translate(c.addr)
		if ok != c.wantOK || fn != c.fn || off != c.off {
			t.Errorf("Translate(%#x) = (%q, %#x, %v), want (%q, %#x, %v)",
				c.addr, fn, off, ok, c.fn, c.off, c.wantOK)
		}
	}
}

func TestParseRejectsCorrupt(t *testing.T) {
	enc := sampleTable().Encode()
	for _, bad := range [][]byte{
		nil,
		[]byte("XXXX"),
		enc[:4],
		enc[:len(enc)-1],
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%d bytes) unexpectedly succeeded", len(bad))
		}
	}
}

// TestBATParsePresizeBounded: Parse sizes its slices from the counts the
// section states, so a count the section has no bytes for must fail the
// parse without buying memory. Each section below is under 20 bytes and
// claims 2^24 records (128 MB of anchors if believed).
func TestBATParsePresizeBounded(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<24)
	header := append([]byte(magic), version)
	oneFunc := append(append([]byte{}, header...), 1, 1, 'x', 1) // nf=1: "x", size 1
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"functions", append(append([]byte{}, header...), huge...)},
		{"ranges", append(append([]byte{}, oneFunc...), huge...)},
		{"anchors", append(append(append([]byte{}, oneFunc...), 1, 0, 0, 1, 1), huge...)}, // nr=1: func 0, hot, start 1, size 1
	} {
		data := tc.data
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := Parse(data)
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Errorf("%s: Parse accepted a %d-byte section claiming 2^24 records", tc.name, len(data))
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got > 4096 {
			t.Errorf("%s: Parse allocated %d bytes for a %d-byte section", tc.name, got, len(data))
		}
	}
}

func TestFuncSize(t *testing.T) {
	tab := sampleTable()
	if sz, ok := tab.FuncSize("alpha"); !ok || sz != 0x80 {
		t.Fatalf("FuncSize(alpha) = %#x, %v", sz, ok)
	}
	// After a parse (funcIdx not pre-built) the lazy path must work too.
	parsed, err := Parse(tab.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if sz, ok := parsed.FuncSize("beta"); !ok || sz != 0x20 {
		t.Fatalf("parsed FuncSize(beta) = %#x, %v", sz, ok)
	}
	if _, ok := parsed.FuncSize("gamma"); ok {
		t.Fatal("FuncSize(gamma) unexpectedly resolved")
	}
}

// TestReaderVarintMatchesBinary holds the reader's uvarint, one-byte
// fast path included, and the zigzag read on it to encoding/binary:
// the same value, the same position after the read, and an error
// exactly where binary.Uvarint reports a truncated (n == 0) or
// overflowing (n < 0) encoding. Each encoding is read at the start of
// the section, after other bytes, and followed by trailing bytes.
func TestReaderVarintMatchesBinary(t *testing.T) {
	var encs [][]byte
	for l := 1; l <= 10; l++ {
		lo := uint64(1) << (7 * (l - 1))
		if l == 1 {
			lo = 0
		}
		hi := uint64(1)<<(7*l) - 1
		if l == 10 {
			hi = ^uint64(0)
		}
		for _, v := range []uint64{lo, lo + 1, lo + (hi-lo)/2, hi - 1, hi} {
			enc := binary.AppendUvarint(nil, v)
			if len(enc) != l {
				t.Fatalf("%d encodes in %d bytes, want %d", v, len(enc), l)
			}
			encs = append(encs, enc,
				enc[:l-1],                            // truncated: the last byte still has its high bit clear
				append(enc[:l-1:l-1], enc[l-1]|0x80)) // truncated: continues past the end
		}
	}
	encs = append(encs,
		[]byte{0x80, 0x00},                           // zero in two bytes
		[]byte{0xFF, 0x7F},                           // the largest two-byte value
		bytes.Repeat([]byte{0x80}, 10),               // ten continuations: truncated
		append(bytes.Repeat([]byte{0x80}, 10), 0x00), // eleven bytes: overflow
		append(bytes.Repeat([]byte{0xFF}, 9), 0x01),  // 2^64 - 1
		append(bytes.Repeat([]byte{0xFF}, 9), 0x02),  // 2^64: overflow
		append(bytes.Repeat([]byte{0x80}, 9), 0x7F),  // tenth byte too large: overflow
	)
	for _, enc := range encs {
		for _, lead := range [][]byte{nil, {0x05, 0x80, 0x01}} {
			for _, tail := range [][]byte{nil, {0x03}, {0x81, 0x02}} {
				data := append(append(append([]byte(nil), lead...), enc...), tail...)
				want, n := binary.Uvarint(data[len(lead):])
				wantPos := len(lead) + max(n, 0)

				r := &reader{data: data, pos: len(lead)}
				got := r.uvarint()
				if got != want || r.pos != wantPos || (r.err != nil) != (n <= 0) {
					t.Fatalf("uvarint % x after % x: got %d at %d (err %v), binary.Uvarint %d, n=%d",
						enc, lead, got, r.pos, r.err, want, n)
				}
				z := &reader{data: data, pos: len(lead)}
				wantZ := int64(want>>1) ^ -int64(want&1)
				if gotZ := z.zigzag(); gotZ != wantZ || z.pos != wantPos || (z.err != nil) != (n <= 0) {
					t.Fatalf("zigzag % x after % x: got %d at %d (err %v), want %d at %d",
						enc, lead, gotZ, z.pos, z.err, wantZ, wantPos)
				}
				// An error sticks: the next read returns zero and stays put.
				if r.err != nil {
					if v := r.uvarint(); v != 0 || r.pos != wantPos {
						t.Fatalf("read after an error gave %d at %d", v, r.pos)
					}
				}
			}
		}
	}
}
