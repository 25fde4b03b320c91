package elfx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func sampleFile() *File {
	f := New()
	f.Entry = 0x401000
	f.AddSection(&Section{
		Name: ".text", Type: SHTProgbits, Flags: SHFAlloc | SHFExecinstr,
		Addr: 0x401000, Data: []byte{0xC3, 0x90, 0x90, 0xF4}, Addralign: 16,
	})
	f.AddSection(&Section{
		Name: ".rodata", Type: SHTProgbits, Flags: SHFAlloc,
		Addr: 0x402000, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Addralign: 8,
	})
	f.AddSection(&Section{
		Name: ".data", Type: SHTProgbits, Flags: SHFAlloc | SHFWrite,
		Addr: 0x403000, Data: bytes.Repeat([]byte{0xAB}, 32), Addralign: 8,
	})
	f.AddSection(&Section{
		Name: ".comment", Type: SHTProgbits, Data: []byte("gobolt"), Addralign: 1,
	})
	f.Symbols = []Symbol{
		{Name: "main", Value: 0x401000, Size: 1, Type: STTFunc, Bind: STBGlobal, Section: ".text"},
		{Name: "pad", Value: 0x401001, Size: 3, Type: STTFunc, Bind: STBLocal, Section: ".text"},
		{Name: "table", Value: 0x402000, Size: 8, Type: STTObject, Bind: STBLocal, Section: ".rodata"},
	}
	return f
}

func TestRoundTrip(t *testing.T) {
	f := sampleFile()
	data, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Entry != f.Entry {
		t.Errorf("entry: got %#x want %#x", g.Entry, f.Entry)
	}
	for _, name := range []string{".text", ".rodata", ".data", ".comment"} {
		a, b := f.Section(name), g.Section(name)
		if b == nil {
			t.Fatalf("section %s missing after round trip", name)
		}
		if a.Addr != b.Addr || a.Flags != b.Flags || !bytes.Equal(a.Data, b.Data) {
			t.Errorf("section %s mismatch: addr %#x/%#x flags %#x/%#x", name, a.Addr, b.Addr, a.Flags, b.Flags)
		}
	}
	if len(g.Symbols) != len(f.Symbols) {
		t.Fatalf("symbols: got %d want %d", len(g.Symbols), len(f.Symbols))
	}
	m, ok := g.SymbolByName("main")
	if !ok || m.Value != 0x401000 || m.Type != STTFunc || m.Bind != STBGlobal || m.Section != ".text" {
		t.Errorf("main symbol corrupted: %+v", m)
	}
}

// TestReadOwnsItsCopy: Read copies what it keeps, so the caller may reuse
// the buffer — overwriting it leaves the File as parsed.
func TestReadOwnsItsCopy(t *testing.T) {
	data, err := sampleFile().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] ^= 0xFF
	}
	if got, err := f.Bytes(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("File changed with the buffer Read parsed (err %v)", err)
	}
}

// TestReadInPlaceAliases: ReadInPlace keeps the sections as windows of the
// buffer, and an append to one section reallocates rather than writing
// over the next section's bytes.
func TestReadInPlaceAliases(t *testing.T) {
	data, err := sampleFile().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, err := ReadInPlace(data)
	if err != nil {
		t.Fatal(err)
	}
	text := f.Section(".text")
	if &text.Data[0] != &data[bytes.Index(data, []byte{0xC3, 0x90, 0x90, 0xF4})] {
		t.Error(".text was copied, want a window of the input")
	}
	before := bytes.Clone(data)
	text.Data = append(text.Data, 0xCC, 0xCC, 0xCC, 0xCC)
	if !bytes.Equal(data, before) {
		t.Error("appending to .text wrote into the input buffer")
	}
}

func TestRelocRoundTrip(t *testing.T) {
	f := sampleFile()
	f.EmitRelocs = true
	f.Relas[".text"] = []Rela{
		{Off: 0, Type: RX8664PC32, Sym: "table", Addend: -4},
		{Off: 2, Type: RX866464, Sym: "main", Addend: 0},
	}
	data, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Read(data)
	if err != nil {
		t.Fatal(err)
	}
	rl := g.Relas[".text"]
	if len(rl) != 2 {
		t.Fatalf("got %d relocs, want 2", len(rl))
	}
	if rl[0].Sym != "table" || rl[0].Type != RX8664PC32 || rl[0].Addend != -4 || rl[0].Off != 0 {
		t.Errorf("reloc 0 corrupted: %+v", rl[0])
	}
	if rl[1].Sym != "main" || rl[1].Type != RX866464 || rl[1].Off != 2 {
		t.Errorf("reloc 1 corrupted: %+v", rl[1])
	}
}

func TestSymbolAt(t *testing.T) {
	x := NewSymbolIndex(sampleFile().Symbols)
	s, ok := x.At(0x401002)
	if !ok || s.Name != "pad" {
		t.Errorf("At(0x401002) = %v, %v; want pad", s.Name, ok)
	}
	if _, ok := x.At(0x500000); ok {
		t.Errorf("At out of range must fail")
	}
}

// symbolAtLinear is the linear scan SymbolIndex replaced, kept as the
// reference: the tightest covering function symbol, the first in table
// order on a tie.
func symbolAtLinear(syms []Symbol, vaddr uint64) (Symbol, bool) {
	best := Symbol{}
	found := false
	for _, s := range syms {
		if s.Type != STTFunc {
			continue
		}
		if vaddr >= s.Value && vaddr < s.Value+s.Size {
			if !found || s.Size < best.Size {
				best = s
				found = true
			}
		}
	}
	return best, found
}

// randomSymbols builds a table with nested, aliased (equal Value and
// Size), zero-size, overlapping and adjacent function symbols, plus
// object symbols and one whose end wraps past 2^64.
func randomSymbols(r *rand.Rand) []Symbol {
	var syms []Symbol
	add := func(v, size uint64, typ byte) {
		syms = append(syms, Symbol{Name: fmt.Sprintf("s%d", len(syms)), Value: v, Size: size, Type: typ})
	}
	for range 1 + r.Intn(40) {
		v, size := 0x1000+uint64(r.Intn(400)), uint64(r.Intn(64))
		switch n := len(syms); {
		case n > 0 && r.Intn(6) == 0: // alias
			p := syms[r.Intn(n)]
			add(p.Value, p.Size, p.Type)
		case n > 0 && r.Intn(6) == 0: // nested inside a previous one
			p := syms[r.Intn(n)]
			if p.Size > 1 {
				off := uint64(r.Int63n(int64(p.Size)))
				add(p.Value+off, 1+uint64(r.Int63n(int64(p.Size-off))), STTFunc)
				continue
			}
			add(v, size, STTFunc)
		case n > 0 && r.Intn(6) == 0: // adjacent to a previous one
			p := syms[r.Intn(n)]
			add(p.Value+p.Size, size, STTFunc)
		case r.Intn(8) == 0:
			add(v, 0, STTFunc)
		case r.Intn(8) == 0:
			add(v, size, STTObject)
		default: // free placement overlaps at random
			add(v, size, STTFunc)
		}
	}
	if r.Intn(4) == 0 {
		add(math.MaxUint64-uint64(r.Intn(8)), 16, STTFunc)
	}
	r.Shuffle(len(syms), func(i, j int) { syms[i], syms[j] = syms[j], syms[i] })
	return syms
}

// The index must agree with the linear scan at every symbol boundary, at
// each boundary ±1 and out of range.
func TestSymbolIndexMatchesLinear(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	for table := range 500 {
		syms := randomSymbols(r)
		x := NewSymbolIndex(syms)
		probes := []uint64{0, 1, 0xfff, 0x10000, math.MaxUint64}
		for _, s := range syms {
			for _, b := range []uint64{s.Value, s.Value + s.Size} {
				probes = append(probes, b-1, b, b+1)
			}
		}
		for _, a := range probes {
			want, wantOK := symbolAtLinear(syms, a)
			got, gotOK := x.At(a)
			if got != want || gotOK != wantOK {
				t.Fatalf("table %d, address %#x: index gives %+v, %v; linear scan %+v, %v\ntable: %+v",
					table, a, got, gotOK, want, wantOK, syms)
			}
		}
	}
}

func TestReadAt(t *testing.T) {
	f := sampleFile()
	b, err := f.ReadAt(0x402002, 3)
	if err != nil || !bytes.Equal(b, []byte{3, 4, 5}) {
		t.Errorf("ReadAt: %v % x", err, b)
	}
	if _, err := f.ReadAt(0x402006, 4); err == nil {
		t.Errorf("cross-section read must fail")
	}
	if _, err := f.ReadAt(0x999999, 1); err == nil {
		t.Errorf("unmapped read must fail")
	}
	// A symbol size of 2^64-8 reaches ReadAt as n = -8; the length check
	// must not wrap round and let it through to the slice expression.
	size := ^uint64(0) - 7
	if _, err := f.ReadAt(0x403010, int(size)); err == nil {
		t.Errorf("negative-length read must fail")
	}
}

func TestExecSpan(t *testing.T) {
	exec := SHFAlloc | SHFExecinstr
	f := New()
	// .text comes first so that .plt has to lower the span's start; the
	// empty executable section lies below .plt and the read-only data
	// above .text.cold, so either would widen the span if counted.
	f.AddSection(&Section{Name: ".text", Type: SHTProgbits, Flags: exec, Addr: 0x401100, Data: make([]byte, 0x80)})
	f.AddSection(&Section{Name: ".plt", Type: SHTProgbits, Flags: exec, Addr: 0x401000, Data: make([]byte, 0x20)})
	f.AddSection(&Section{Name: ".init", Type: SHTProgbits, Flags: exec, Addr: 0x400000})
	f.AddSection(&Section{Name: ".text.cold", Type: SHTProgbits, Flags: exec, Addr: 0x402000, Data: make([]byte, 0x30)})
	f.AddSection(&Section{Name: ".rodata", Type: SHTProgbits, Flags: SHFAlloc, Addr: 0x403000, Data: make([]byte, 8)})
	if lo, hi := f.ExecSpan(); lo != 0x401000 || hi != 0x402030 {
		t.Errorf("ExecSpan = [%#x, %#x), want [0x401000, 0x402030)", lo, hi)
	}

	noExec := New()
	noExec.AddSection(&Section{Name: ".rodata", Type: SHTProgbits, Flags: SHFAlloc, Addr: 0x403000, Data: make([]byte, 8)})
	for _, g := range []*File{New(), noExec} {
		if lo, hi := g.ExecSpan(); lo != 0 || hi != 0 {
			t.Errorf("ExecSpan with no executable section = [%#x, %#x), want [0, 0)", lo, hi)
		}
	}
}

func TestOverlapRejected(t *testing.T) {
	f := New()
	f.AddSection(&Section{Name: "a", Flags: SHFAlloc, Addr: 0x1000, Data: make([]byte, 32), Type: SHTProgbits})
	f.AddSection(&Section{Name: "b", Flags: SHFAlloc, Addr: 0x1010, Data: make([]byte, 32), Type: SHTProgbits})
	if _, err := f.Bytes(); err == nil {
		t.Fatal("overlapping sections must be rejected")
	}
}

func TestGarbageRejected(t *testing.T) {
	for _, b := range [][]byte{nil, []byte("hello"), bytes.Repeat([]byte{0}, 100)} {
		if _, err := Read(b); err == nil {
			t.Errorf("Read(%d bytes of garbage) succeeded", len(b))
		}
	}
}

// TestHostileHeadersRejected: offsets, sizes and links a header states
// are checked before they index or size anything — an image that lies
// about them is an error from Read, never a panic or a giant allocation.
func TestHostileHeadersRejected(t *testing.T) {
	img, err := sampleFile().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	shoff := binary.LittleEndian.Uint64(img[40:])
	shdr := func(i int) []byte { return img[shoff+uint64(i)*shdrSize:] }
	symtab := 0
	for i := 1; i < int(binary.LittleEndian.Uint16(img[60:])); i++ {
		if binary.LittleEndian.Uint32(shdr(i)[4:]) == SHTSymtab {
			symtab = i
		}
	}
	for _, tc := range []struct {
		name  string
		patch func(b []byte)
	}{
		{"section table offset wraps", func(b []byte) { binary.LittleEndian.PutUint64(b[40:], ^uint64(0)-100) }},
		{"section offset wraps", func(b []byte) { binary.LittleEndian.PutUint64(b[shoff+shdrSize+24:], ^uint64(0)-8) }},
		{"section size wraps", func(b []byte) { binary.LittleEndian.PutUint64(b[shoff+shdrSize+32:], ^uint64(0)) }},
		{"symbol table links past the section table", func(b []byte) {
			binary.LittleEndian.PutUint32(b[shoff+uint64(symtab)*shdrSize+40:], 0x7fffffff)
		}},
		{"terabyte of zero-fill", func(b []byte) {
			binary.LittleEndian.PutUint32(b[shoff+shdrSize+4:], SHTNobits)
			binary.LittleEndian.PutUint64(b[shoff+shdrSize+32:], 1<<40)
		}},
	} {
		b := bytes.Clone(img)
		tc.patch(b)
		if _, err := Read(b); err == nil {
			t.Errorf("%s: Read accepted the image", tc.name)
		}
	}
}

// TestZeroFillBoundedInTotal: each zero-fill section of this 896-byte
// image is within maxNobits, but the twelve together claim 3 GB. Read
// rejects it before allocating any of them.
func TestZeroFillBoundedInTotal(t *testing.T) {
	const n = 12
	img := make([]byte, ehdrSize+(n+1)*shdrSize)
	copy(img, "\x7fELF\x02\x01")
	binary.LittleEndian.PutUint64(img[40:], ehdrSize)
	binary.LittleEndian.PutUint16(img[58:], shdrSize)
	binary.LittleEndian.PutUint16(img[60:], n+1)
	for i := 1; i <= n; i++ {
		h := img[ehdrSize+i*shdrSize:]
		binary.LittleEndian.PutUint32(h[4:], SHTNobits)
		binary.LittleEndian.PutUint64(h[8:], SHFAlloc|SHFWrite)
		binary.LittleEndian.PutUint64(h[32:], maxNobits)
	}
	if len(img) != 896 {
		t.Fatalf("image is %d bytes", len(img))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadInPlace(img)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("ReadInPlace accepted 3 GB of zero-fill")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > maxNobits {
		t.Errorf("ReadInPlace allocated %d bytes, more than maxNobits", got)
	}
}

// Property: random section payloads and symbols survive a write/read cycle.
func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	check := func() bool {
		f := New()
		f.Entry = 0x400000 + uint64(r.Intn(0x1000))
		addr := uint64(0x400000)
		n := 1 + r.Intn(4)
		for i := 0; i < n; i++ {
			size := 1 + r.Intn(300)
			data := make([]byte, size)
			r.Read(data)
			flags := SHFAlloc
			if i%2 == 1 {
				flags |= SHFWrite
			} else {
				flags |= SHFExecinstr
			}
			f.AddSection(&Section{
				Name: string(rune('a'+i)) + ".sect", Type: SHTProgbits,
				Flags: flags, Addr: addr, Data: data, Addralign: 1,
			})
			addr += uint64(size) + uint64(r.Intn(0x1000))
		}
		for i := 0; i < r.Intn(5); i++ {
			f.Symbols = append(f.Symbols, Symbol{
				Name: string(rune('f'+i)) + "unc", Value: 0x400000 + uint64(r.Intn(100)),
				Size: uint64(r.Intn(50)), Type: STTFunc, Bind: byte(r.Intn(2)),
				Section: f.Sections[0].Name,
			})
		}
		data, err := f.Bytes()
		if err != nil {
			t.Logf("write: %v", err)
			return false
		}
		g, err := Read(data)
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		if g.Entry != f.Entry || len(g.Sections) != len(f.Sections) || len(g.Symbols) != len(f.Symbols) {
			return false
		}
		for _, s := range f.Sections {
			gs := g.Section(s.Name)
			if gs == nil || gs.Addr != s.Addr || !bytes.Equal(gs.Data, s.Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
