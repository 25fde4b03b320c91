package bolt_test

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	"gobolt/internal/bench"
	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/passes"
	"gobolt/internal/workload"
)

// TestPlacementReadBackFromSymbols runs the whole pipeline on the
// proxygen preset and reads the layout rule back from what a consumer of
// the output sees — the function and ".cold.0" symbols of .text and
// .text.cold: a fragment of a profiled function spans the fewest 64-byte
// lines its size allows, no byte of padding precedes one without
// profile, every pad is shorter than a line, the pads add up to
// emit-pad-bytes, and all of it is the same at one worker and four.
func TestPlacementReadBackFromSymbols(t *testing.T) {
	const line = 64
	f := buildSorted(t, scaled(workload.Proxygen()), bench.CfgBaseline)
	fd := record(t, f)
	cx := context.Background()
	var first []byte
	for _, jobs := range []int{1, 4} {
		opts := core.DefaultOptions()
		opts.Jobs = jobs
		ctx, err := core.NewContext(cx, f, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.ApplyProfile(cx, fd); err != nil {
			t.Fatal(err)
		}
		if err := core.NewPassManager(jobs).Run(cx, ctx, passes.BuildPipeline(opts)); err != nil {
			t.Fatal(err)
		}
		res, err := ctx.Rewrite(cx)
		if err != nil {
			t.Fatal(err)
		}
		out, err := res.File.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = out
		} else if !bytes.Equal(first, out) {
			t.Errorf("jobs=%d: output differs from jobs=1", jobs)
		}

		type frag struct {
			addr, size uint64
			sampled    bool
		}
		var pad, padded, sampled uint64
		for _, name := range []string{".text", ".text.cold"} {
			sec := res.File.Section(name)
			if sec == nil {
				t.Fatalf("jobs=%d: no %s in the output", jobs, name)
			}
			if sec.Addr%line != 0 || sec.Addralign != line {
				t.Errorf("jobs=%d: %s at %#x with sh_addralign %d, want a line-aligned base and %d", jobs, name, sec.Addr, sec.Addralign, line)
			}
			// Aliases (ICF twins, folded functions) name one fragment
			// several times.
			byAddr := map[uint64]frag{}
			for _, sym := range res.File.Symbols {
				if sym.Section != name || sym.Type != elfx.STTFunc {
					continue
				}
				fn := ctx.ByName[strings.TrimSuffix(sym.Name, ".cold.0")]
				if fn == nil {
					t.Fatalf("jobs=%d: symbol %s in %s names no function", jobs, sym.Name, name)
				}
				for fn.FoldedInto != nil {
					fn = fn.FoldedInto
				}
				byAddr[sym.Value] = frag{sym.Value, sym.Size, fn.Sampled}
			}
			frags := make([]frag, 0, len(byAddr))
			for _, fr := range byAddr {
				frags = append(frags, fr)
			}
			sort.Slice(frags, func(i, j int) bool { return frags[i].addr < frags[j].addr })
			free := sec.Addr
			for _, fr := range frags {
				switch {
				case fr.size == 0 || fr.addr < free || fr.addr-free >= line:
					t.Fatalf("jobs=%d: %s fragment [%#x,+%d) after free address %#x", jobs, name, fr.addr, fr.size, free)
				case !fr.sampled && fr.addr != free:
					t.Errorf("jobs=%d: %s: %d bytes of padding before the unprofiled fragment at %#x", jobs, name, fr.addr-free, fr.addr)
				case fr.sampled && (fr.addr+fr.size-1)/line-fr.addr/line+1 != (fr.size+line-1)/line:
					t.Errorf("jobs=%d: %s: profiled fragment [%#x,+%d) spans more lines than its size needs", jobs, name, fr.addr, fr.size)
				case fr.addr != free && fr.addr%line != 0:
					t.Errorf("jobs=%d: %s: fragment padded to %#x, not a line start", jobs, name, fr.addr)
				}
				if fr.sampled {
					sampled++
				}
				if fr.addr != free {
					padded++
				}
				pad += fr.addr - free
				free = fr.addr + fr.size
			}
			if free != sec.Addr+sec.Size() {
				t.Errorf("jobs=%d: %s ends at %#x, its last symbol at %#x", jobs, name, sec.Addr+sec.Size(), free)
			}
		}
		if got := ctx.Stats["emit-pad-bytes"]; got != int64(pad) || pad == 0 {
			t.Errorf("jobs=%d: emit-pad-bytes %d, symbols show %d bytes of padding", jobs, got, pad)
		}
		if sampled == 0 || padded == 0 || padded == sampled {
			t.Errorf("jobs=%d: %d profiled fragments, %d padded: the preset does not exercise both sides of the rule", jobs, sampled, padded)
		}
	}
}
