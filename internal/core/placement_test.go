package core

import (
	"context"
	"math/rand"
	"testing"

	"gobolt/internal/elfx"
)

// linesSpanned is how many cache lines the bytes [addr, addr+size) touch.
func linesSpanned(addr, size uint64) uint64 {
	return (addr+size-1)/cacheLine - addr/cacheLine + 1
}

// TestPlaceFragmentTable pins the placement rule case by case: where a
// fragment goes given the first free address, its size and whether its
// function has profile.
func TestPlaceFragmentTable(t *testing.T) {
	const base = 0x401000
	for _, c := range []struct {
		name    string
		off     uint64 // first free address, relative to a line-aligned base
		size    uint64
		sampled bool
		want    uint64 // relative to base
	}{
		{"line start stays", 0, 10, true, 0},
		{"fits in the rest of the line", 48, 16, true, 48},
		{"one byte too long for the rest of the line", 48, 17, true, 64},
		{"last byte of a line, one byte", 63, 1, true, 63},
		{"last byte of a line, two bytes", 63, 2, true, 64},
		{"exactly one line, off a boundary", 1, 64, true, 64},
		{"two lines either way: no padding", 10, 100, true, 10},
		{"third line avoided", 40, 100, true, 64},
		{"multi-line tail fits", 30, 64 + 34, true, 30},
		{"multi-line tail one over", 30, 64 + 35, true, 64},
		{"full lines only fit on a boundary", 16, 128, true, 64},
		{"full lines on a boundary", 64, 128, true, 64},
		{"no profile: packed even across a line", 48, 17, false, 48},
		{"no profile: packed at an odd address", 61, 300, false, 61},
		{"empty fragment takes no padding", 50, 0, true, 50},
	} {
		got := placeFragment(base+c.off, c.size, c.sampled) - base
		if got != c.want {
			t.Errorf("%s: off %d size %d sampled %v: placed at +%d, want +%d",
				c.name, c.off, c.size, c.sampled, got, c.want)
		}
	}
}

// TestPlaceInvariants runs the emit:layout stage itself over seeded
// random sequences of (hot size, cold size, sampled) and reads the
// rule's contract back from the addresses it assigned, in both sections:
// a sampled fragment spans the fewest lines its size allows, nothing
// pads an unsampled one, addresses strictly increase, a pad is shorter
// than a line, and emit-pad-bytes counts exactly the pads.
func TestPlaceInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	cx := context.Background()
	for seq := 0; seq < 1200; seq++ {
		in := elfx.New()
		in.AddSection(&elfx.Section{
			Name: ".data", Flags: elfx.SHFAlloc, Addr: 0x400000,
			Data: make([]byte, 1+rng.Intn(5000)),
		})
		ctx := &BinaryContext{File: in, Stats: map[string]int64{}}
		e := &emitter{ctx: ctx, funcs: make([]emittedFn, 1+rng.Intn(40))}
		// Sizes cluster around the line size, where the rule decides.
		size := func() int {
			switch rng.Intn(4) {
			case 0:
				return 1 + rng.Intn(16)
			case 1:
				return cacheLine*(1+rng.Intn(3)) - 2 + rng.Intn(5)
			default:
				return 1 + rng.Intn(700)
			}
		}
		for i := range e.funcs {
			fn := &BinaryFunction{Simple: true, Sampled: rng.Intn(3) > 0, ordIdx: i}
			ctx.Funcs = append(ctx.Funcs, fn)
			e.funcs[i].fn = fn
			e.funcs[i].frags = []fragment{{fn: fn, Code: make([]byte, size())}}
			if fn.Sampled && rng.Intn(3) == 0 {
				e.funcs[i].frags = append(e.funcs[i].frags, fragment{fn: fn, cold: true, Code: make([]byte, size())})
			}
		}
		if err := e.place(cx); err != nil {
			t.Fatal(err)
		}
		pad := uint64(0)
		for s := range e.text {
			sec := &e.text[s]
			if sec.base%cacheLine != 0 {
				t.Fatalf("seq %d: section %d base %#x is not line-aligned", seq, s, sec.base)
			}
			free := sec.base
			for i := range e.funcs {
				if s >= len(e.funcs[i].frags) {
					continue
				}
				fr := &e.funcs[i].frags[s]
				n := uint64(len(fr.Code))
				switch {
				case fr.addr < free || fr.addr-free >= cacheLine:
					t.Fatalf("seq %d: fragment %d/%d at %#x after free address %#x", seq, i, s, fr.addr, free)
				case !fr.fn.Sampled && fr.addr != free:
					t.Fatalf("seq %d: %d bytes of padding before unsampled fragment %d/%d", seq, fr.addr-free, i, s)
				case fr.fn.Sampled && linesSpanned(fr.addr, n) != (n+cacheLine-1)/cacheLine:
					t.Fatalf("seq %d: sampled fragment %d/%d, %d bytes at %#x, spans %d lines", seq, i, s, n, fr.addr, linesSpanned(fr.addr, n))
				case fr.addr != free && fr.addr%cacheLine != 0:
					t.Fatalf("seq %d: fragment %d/%d padded to %#x, not a line start", seq, i, s, fr.addr)
				}
				pad += fr.addr - free
				free = fr.addr + n
			}
			if sec.end != free {
				t.Fatalf("seq %d: section %d ends at %#x, last fragment at %#x", seq, s, sec.end, free)
			}
		}
		if got := ctx.Stats[StatEmitPadBytes.String()]; got != int64(pad) {
			t.Fatalf("seq %d: emit-pad-bytes %d, fragments are padded by %d", seq, got, pad)
		}
	}
}
