package isa_test

import (
	"math/rand"
	"sync"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
	"gobolt/internal/workload"
)

// body is one function's code at its address.
type body struct {
	code []byte
	addr uint64
}

// proxygenBodies links the proxygen preset once and returns the body of
// every function symbol in its .text: what the toolchain emits, read the
// way the loader, bincheck and the VM read it.
var proxygenBodies = sync.OnceValues(func() ([]body, error) {
	objs, err := cc.Compile(workload.Generate(workload.Proxygen()), cc.DefaultOptions())
	if err != nil {
		return nil, err
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true, ICF: true})
	if err != nil {
		return nil, err
	}
	text := res.File.Section(".text")
	var bodies []body
	for _, sym := range res.File.FuncSymbols() {
		if sym.Value >= text.Addr && sym.Value+sym.Size <= text.Addr+uint64(len(text.Data)) {
			off := sym.Value - text.Addr
			bodies = append(bodies, body{text.Data[off : off+sym.Size], sym.Value})
		}
	}
	return bodies, nil
})

func bodiesOf(tb testing.TB) []body {
	tb.Helper()
	bodies, err := proxygenBodies()
	if err != nil {
		tb.Fatal(err)
	}
	return bodies
}

// TestDecodeMatchesReference holds Decode to refDecode, the decoder it
// replaced: the same instruction, length and error on every instruction
// of the linked proxygen preset's .text, on every truncated prefix of
// each, and on seeded random byte strings in which prefixes (F3, 66,
// REX) and the 0F escape are common.
func TestDecodeMatchesReference(t *testing.T) {
	insts := 0
	for _, fn := range bodiesOf(t) {
		for off := 0; off < len(fn.code); {
			pc := fn.addr + uint64(off)
			_, n, err := isa.MatchRef(t, fn.code[off:], pc)
			if err != nil {
				t.Fatalf("proxygen's code does not decode: %v", err)
			}
			for k := range n {
				isa.MatchRef(t, fn.code[off:off+k], pc)
			}
			insts++
			off += n
		}
	}
	if insts < 10000 {
		t.Fatalf("decoded %d instructions of proxygen's .text, want a whole preset", insts)
	}

	r := rand.New(rand.NewSource(1))
	prefixes := []byte{0xF3, 0x66, 0x0F, 0x40}
	buf := make([]byte, isa.MaxInstLen+1)
	for range 200_000 {
		code := buf[:1+r.Intn(len(buf))]
		for i := range code {
			if r.Intn(3) == 0 {
				b := prefixes[r.Intn(len(prefixes))]
				if b == 0x40 {
					b |= byte(r.Intn(16)) // any REX
				}
				code[i] = b
			} else {
				code[i] = byte(r.Intn(256))
			}
		}
		isa.MatchRef(t, code, r.Uint64())
	}
}

// BenchmarkDecode measures decoding every function of the proxygen
// preset's .text linearly into one instruction, as bincheck and the
// loader read a function body.
func BenchmarkDecode(b *testing.B) {
	bodies := bodiesOf(b)
	size := 0
	for _, fn := range bodies {
		size += len(fn.code)
	}
	var in isa.Inst
	b.SetBytes(int64(size))
	b.ReportAllocs()
	for b.Loop() {
		for _, fn := range bodies {
			for off := 0; off < len(fn.code); {
				n, err := isa.Decode(&in, fn.code[off:], fn.addr+uint64(off))
				if err != nil {
					b.Fatal(err)
				}
				off += n
			}
		}
	}
}
