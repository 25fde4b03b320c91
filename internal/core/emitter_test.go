package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"gobolt/internal/bat"
	"gobolt/internal/cc"
	"gobolt/internal/elfx"
	"gobolt/internal/isa"
	"gobolt/internal/ld"
	"gobolt/internal/obj"
	"gobolt/internal/workload"
)

// placedEmitter loads a workload shape, marks blocks cold the way the
// splitting pass would (markCold says which, the entry stays hot), folds
// one function into another like ICF, declares a third non-simple, and
// runs the emitter up to address assignment.
func placedEmitter(t *testing.T, spec workload.Spec, markCold func(*BasicBlock) bool) (e *emitter, split, folded, canon, unmoved *BinaryFunction) {
	t.Helper()
	objs, err := cc.Compile(workload.Generate(spec), cc.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true, ICF: true})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	cx := context.Background()
	ctx, err := NewContext(cx, res.File, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range ctx.SimpleFuncs() {
		for _, b := range fn.Blocks[1:] {
			if markCold(b) {
				b.IsCold = true
			}
		}
		switch {
		case fn.IsSplit() && split == nil:
			split = fn
		case fn.IsSplit() || fn.Name == "_start":
		case canon == nil:
			canon = fn
		case folded == nil:
			folded = fn
		case unmoved == nil:
			unmoved = fn
		}
	}
	if split == nil || unmoved == nil {
		t.Fatal("shape has no split function or too few plain ones")
	}
	folded.FoldedInto = canon
	unmoved.Simple = false

	e = &emitter{ctx: ctx, out: elfx.New()}
	if err := e.assemble(cx); err != nil {
		t.Fatal(err)
	}
	if err := e.place(cx); err != nil {
		t.Fatal(err)
	}
	return e, split, folded, canon, unmoved
}

// TestEmitterAddressResolution pins the three rules every patched
// reference goes through — final address of a function, output address
// of a block, old address → new address — which whole-binary hashes only
// cover indirectly.
func TestEmitterAddressResolution(t *testing.T) {
	exceptions := workload.Tiny()
	exceptions.ThrowFrac, exceptions.ColdProb = 0.9, 0.1
	coldSplit := workload.Tiny()
	coldSplit.ColdProb, coldSplit.ColdOpsMax = 0.2, 80
	for _, shape := range []struct {
		name     string
		spec     workload.Spec
		markCold func(*BasicBlock) bool
	}{
		{"exceptions", exceptions, func(b *BasicBlock) bool { return b.IsLP }},                      // landing pads
		{"cold-split", coldSplit, func(b *BasicBlock) bool { return len(b.Succs) == 0 && !b.IsLP }}, // exit blocks
	} {
		t.Run(shape.name, func(t *testing.T) {
			e, split, folded, canon, unmoved := placedEmitter(t, shape.spec, shape.markCold)
			frags := e.byOrd[split.ordIdx].frags
			if len(frags) != 2 || frags[0].cold || !frags[1].cold {
				t.Fatalf("%s: want a hot and a cold fragment, got %d", split.Name, len(frags))
			}
			var firstCold *BasicBlock
			for _, b := range split.Blocks {
				if b.IsCold && firstCold == nil {
					firstCold = b
				}
			}
			canonEntry := e.byOrd[canon.ordIdx].frags[0].addr
			in := func(fr *fragment, addr uint64) bool {
				return addr >= fr.addr && addr <= fr.addr+uint64(len(fr.Code))
			}

			for _, row := range []struct {
				name    string
				got     func() (uint64, error)
				want    uint64
				wantErr string
			}{
				{"moved function → its entry fragment",
					func() (uint64, error) { return e.funcAddr(split), nil }, frags[0].addr, ""},
				{"folded function → its canonical's output address",
					func() (uint64, error) { return e.funcAddr(folded), nil }, canonEntry, ""},
				{"reference to a folded function by ordinal",
					func() (uint64, error) { return e.symAddr(obj.FuncSym(folded.ordIdx)) }, canonEntry, ""},
				{"old entry of a folded function → canonical's output address",
					func() (uint64, error) { v, _ := e.mapOldAddr(folded.Addr); return v, nil }, canonEntry, ""},
				{"non-simple function → input address",
					func() (uint64, error) { return e.funcAddr(unmoved), nil }, unmoved.Addr, ""},
				{"old address inside a non-simple function is unchanged",
					func() (uint64, error) { v, _ := e.mapOldAddr(unmoved.Addr + 1); return v, nil }, unmoved.Addr + 1, ""},
				{"entry block → entry fragment start",
					func() (uint64, error) { return e.blockAddr(split, split.Blocks[0].Index) }, frags[0].addr, ""},
				{"first cold block → cold fragment start",
					func() (uint64, error) { return e.blockAddr(split, firstCold.Index) }, frags[1].addr, ""},
				{"old address of a cold block → cold fragment",
					func() (uint64, error) { v, _ := e.mapOldAddr(firstCold.Addr); return v, nil }, frags[1].addr, ""},
				{"block of an unemitted function",
					func() (uint64, error) { return e.blockAddr(unmoved, 0) }, 0, "block sym for unmoved function"},
				{"block of a folded function",
					func() (uint64, error) { return e.symAddr(obj.BlockSym(folded.ordIdx, 0)) }, 0, "block sym for unmoved function"},
				{"block index the function does not have",
					func() (uint64, error) { return e.blockAddr(split, len(split.Blocks)+7) }, 0, "not emitted"},
			} {
				got, err := row.got()
				switch {
				case row.wantErr != "":
					if err == nil || !strings.Contains(err.Error(), row.wantErr) {
						t.Errorf("%s: error %v, want one containing %q", row.name, err, row.wantErr)
					}
				case err != nil || got != row.want:
					t.Errorf("%s: got %#x, %v; want %#x", row.name, got, err, row.want)
				}
			}

			// Every block of every emitted function resolves into the
			// fragment its temperature says, and its input address maps to
			// the same place.
			for i := range e.funcs {
				ef := &e.funcs[i]
				for _, b := range ef.fn.Blocks {
					want := &ef.frags[0]
					if b.IsCold {
						want = &ef.frags[1]
					}
					addr, err := e.blockAddr(ef.fn, b.Index)
					if err != nil || !in(want, addr) {
						t.Fatalf("%s block %d: %#x, %v; want inside fragment at %#x", ef.fn.Name, b.Index, addr, err, want.addr)
					}
					if old, ok := e.mapOldAddr(b.Addr); !ok || old != addr {
						t.Fatalf("%s block %d: old address maps to %#x, %v; block is at %#x", ef.fn.Name, b.Index, old, ok, addr)
					}
				}
			}
		})
	}
}

// TestBATAnchorRule pins how a fragment's BAT entries are chosen. The
// first anchor at an output offset decides the offset: if it is foreign
// (an instruction spliced in from another function keeps its origin
// address), no entry is written there, even when a native anchor follows
// at the same offset. A foreign anchor on its own is dropped, and a
// native one maps to its offset within the function.
func TestBATAnchorRule(t *testing.T) {
	fn := &BinaryFunction{Name: "f", Addr: 0x1000, Size: 0x100}
	const foreign = 0x5000
	var sc emitScratch
	sc.reset(&BinaryContext{}, fn, 0)
	ret := isa.NewInst(isa.RET) // one byte: each Emit advances the offset by 1
	for _, step := range [][]uint64{
		{0x1000},          // offset 0: native
		{foreign, 0x1004}, // offset 1: foreign first, native behind it
		{foreign},         // offset 2: foreign alone
		{0x1008, 0x100c},  // offset 3: native first, a second native behind it
	} {
		for _, addr := range step {
			sc.anchor(addr)
		}
		sc.asm.Emit(ret)
	}
	if _, err := sc.asm.Layout(0); err != nil {
		t.Fatal(err)
	}
	res, err := sc.asm.Finish(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeAnchors(t, sc.materialize(res).BAT)
	want := []bat.Entry{{OutOff: 0, InOff: 0}, {OutOff: 3, InOff: 8}}
	if !slices.Equal(got, want) {
		t.Fatalf("anchors %v, want %v", got, want)
	}
}

// decodeAnchors reads a fragment's BAT entries back from their wire form,
// through a one-range section.
func decodeAnchors(t *testing.T, a bat.Anchors) []bat.Entry {
	t.Helper()
	sec := bat.Write([]bat.FuncInfo{{Name: "f"}},
		func(yield func(bat.RangeHead, *bat.Anchors) bool) { yield(bat.RangeHead{}, &a) })
	tab, err := bat.Parse(sec)
	if err != nil {
		t.Fatal(err)
	}
	return tab.Ranges[0].Entries
}
