package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gobolt/internal/bat"
	"gobolt/internal/elfx"
)

// TestWriteBATMatchesTableEncode: writeBAT builds .bolt.bat from the
// emitter's own data — names interned through ByName, ranges walked hot
// then cold in layout order, entries already in wire form. On seeded
// random layouts its section must equal the table built the general way:
// every fragment added to a bat.Table with AddFunc / AddRange, then
// Table.Encode, which interns by name and sorts the ranges by address.
// The layouts have functions sharing a name (the first in layout order
// decides the name's size), a name's ByName function left in place, cold
// fragments, fragments with no entries, and deltas that take the longest
// varints; the test fails if a case is never reached.
func TestWriteBATMatchesTableEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	cx := context.Background()
	reached := map[string]int{}
	for seq := 0; seq < 600; seq++ {
		in := elfx.New()
		in.AddSection(&elfx.Section{
			Name: ".data", Flags: elfx.SHFAlloc, Addr: 0x400000 + uint64(rng.Intn(3))<<36,
			Data: make([]byte, 1+rng.Intn(64)),
		})
		ctx := &BinaryContext{File: in, ByName: map[string]*BinaryFunction{}, Stats: map[string]int64{}}
		nFuncs := 1 + rng.Intn(40)
		names := 1 + rng.Intn(nFuncs)
		for i := 0; i < nFuncs; i++ {
			fn := &BinaryFunction{
				Name: fmt.Sprintf("f%d", rng.Intn(names)), Size: uint64(1 + rng.Intn(1<<uint(1+rng.Intn(33)))),
				Simple: true, Sampled: rng.Intn(3) > 0, ordIdx: i,
			}
			ctx.Funcs = append(ctx.Funcs, fn)
			ctx.ByName[fn.Name] = fn // the loader's rule: the last one of a name
		}
		e := &emitter{ctx: ctx, out: elfx.New(), text: [2]textSection{{name: ".text"}, {name: ".text.cold"}}}
		listed := map[string]bool{}
		for _, k := range rng.Perm(nFuncs) { // layout order
			fn := ctx.Funcs[k]
			if rng.Intn(4) == 0 {
				if ctx.ByName[fn.Name] == fn {
					reached["a name's ByName function stays"]++
				}
				continue
			}
			if listed[fn.Name] {
				reached["name shared"]++
			}
			listed[fn.Name] = true
			ef := emittedFn{fn: fn, frags: []fragment{{fn: fn}}}
			if rng.Intn(3) == 0 {
				ef.frags = append(ef.frags, fragment{fn: fn, cold: true})
				reached["cold"]++
			}
			e.funcs = append(e.funcs, ef)
		}
		if len(e.funcs) == 0 {
			continue
		}
		entries := make([][2][]bat.Entry, len(e.funcs))
		for i := range e.funcs {
			for s := range e.funcs[i].frags {
				fr := &e.funcs[i].frags[s]
				size := 1 + rng.Intn(600)
				fr.Code = make([]byte, size)
				if rng.Intn(5) == 0 {
					reached["no entries"]++
					continue
				}
				out, inOff := 0, int64(rng.Intn(64))
				for out < size {
					switch rng.Intn(8) {
					case 0: // a jump far forward or back in input coordinates
						inOff = int64(rng.Uint32())
						reached["long delta"]++
					default:
						inOff = max(0, inOff+int64(rng.Intn(24))-8)
					}
					en := bat.Entry{OutOff: uint32(out), InOff: uint32(inOff)}
					entries[i][s] = append(entries[i][s], en)
					fr.BAT.Add(en)
					out += 1 + rng.Intn(12)
				}
			}
		}
		if err := e.place(cx); err != nil {
			t.Fatal(err)
		}
		want := &bat.Table{}
		for i := range e.funcs {
			fn := e.funcs[i].fn
			for s := range e.funcs[i].frags {
				fr := &e.funcs[i].frags[s]
				want.AddRange(bat.Range{
					FuncIdx: want.AddFunc(fn.Name, fn.Size),
					Start:   fr.addr, Size: uint32(len(fr.Code)), Cold: fr.cold,
					Entries: entries[i][s],
				})
			}
		}
		e.writeBAT()
		got := e.out.Section(bat.SectionName).Data
		if !bytes.Equal(got, want.Encode()) {
			t.Fatalf("seq %d: writeBAT's section differs from Table.Encode's", seq)
		}
		if cap(got) != len(got) {
			t.Fatalf("seq %d: section of %d bytes has capacity %d", seq, len(got), cap(got))
		}
	}
	for _, c := range []string{"name shared", "a name's ByName function stays", "cold", "no entries", "long delta"} {
		if reached[c] == 0 {
			t.Errorf("case %q never reached", c)
		}
	}
}
