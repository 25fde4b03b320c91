package dataflow

import (
	"math/rand"
	"slices"
	"testing"

	"gobolt/internal/isa"
)

// graphOf builds the CSR graph of per-block successor lists.
func graphOf(succs [][]int32) *Graph {
	off := make([]int32, 1, len(succs)+1)
	var flat []int32
	for _, s := range succs {
		flat = append(flat, s...)
		off = append(off, int32(len(flat)))
	}
	g := new(Scratch).NewGraph(off, flat)
	return &g
}

// refLiveness is Liveness as it stood before it took dense arrays — it
// re-asks for succs, use and def on every worklist visit and builds
// predecessor lists by appending — kept as the oracle.
func refLiveness(n int, succs func(int) []int, use, def func(int) isa.RegSet) (liveIn, liveOut []isa.RegSet) {
	liveIn = make([]isa.RegSet, n)
	liveOut = make([]isa.RegSet, n)
	inWork := make([]bool, n)
	work := make([]int, 0, n)
	for i := n - 1; i >= 0; i-- {
		work = append(work, i)
		inWork[i] = true
	}
	preds := make([][]int, n)
	for i := 0; i < n; i++ {
		for _, s := range succs(i) {
			if s >= 0 && s < n {
				preds[s] = append(preds[s], i)
			}
		}
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[b] = false
		var out isa.RegSet
		for _, s := range succs(b) {
			if s >= 0 && s < n {
				out |= liveIn[s]
			}
		}
		in := use(b) | (out &^ def(b))
		if out == liveOut[b] && in == liveIn[b] {
			continue
		}
		liveOut[b] = out
		liveIn[b] = in
		for _, p := range preds[b] {
			if !inWork[p] {
				inWork[p] = true
				work = append(work, p)
			}
		}
	}
	return liveIn, liveOut
}

// TestLivenessMatchesReference: identical live-in and live-out sets on
// seeded random CFGs with loops, self edges, duplicate edges (a block
// whose successor is also its landing pad), blocks with no successors
// and blocks nothing reaches.
func TestLivenessMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	// Sparse sets over the sixteen registers and FLAGS.
	regs := func() isa.RegSet { return isa.RegSet(r.Uint64()) & isa.RegSet(r.Uint64()) & (1<<17 - 1) }
	for i := 0; i < 1000; i++ {
		n := 1 + r.Intn(30)
		reach := n
		if r.Intn(4) == 0 {
			reach = 1 + n/2
		}
		succs := make([][]int32, n)
		use, def := make([]isa.RegSet, n), make([]isa.RegSet, n)
		for b := range succs {
			for k := r.Intn(4); k > 0; k-- {
				s := int32(r.Intn(reach))
				switch r.Intn(6) {
				case 0:
					s = int32(b)
				case 1:
					s = int32(min(b+1, n-1))
				}
				succs[b] = append(succs[b], s)
			}
			if len(succs[b]) > 0 && r.Intn(5) == 0 {
				succs[b] = append(succs[b], succs[b][0]) // an exception edge doubling a branch
			}
			use[b], def[b] = regs(), regs()
		}
		wantIn, wantOut := refLiveness(n,
			func(b int) []int {
				var out []int
				for _, s := range succs[b] {
					out = append(out, int(s))
				}
				return out
			},
			func(b int) isa.RegSet { return use[b] },
			func(b int) isa.RegSet { return def[b] })
		gotIn, gotOut := new(Scratch).Liveness(graphOf(succs), use, def)
		if !slices.Equal(gotIn, wantIn) || !slices.Equal(gotOut, wantOut) {
			t.Fatalf("cfg %d (succs %v):\n in  %v\n want %v\n out %v\n want %v", i, succs, gotIn, wantIn, gotOut, wantOut)
		}
	}
}

func TestLivenessStraightLine(t *testing.T) {
	// b0 -> b1; b0 defs RAX, b1 uses RAX.
	g := graphOf([][]int32{{1}, nil})
	use := []isa.RegSet{0, isa.RegMask(isa.RAX)}
	def := []isa.RegSet{isa.RegMask(isa.RAX), 0}
	liveIn, liveOut := new(Scratch).Liveness(g, use, def)
	if !liveOut[0].Has(isa.RAX) {
		t.Errorf("RAX must be live out of b0: %v", liveOut[0])
	}
	if liveIn[0].Has(isa.RAX) {
		t.Errorf("RAX must not be live into b0 (defined there): %v", liveIn[0])
	}
	if !liveIn[1].Has(isa.RAX) {
		t.Errorf("RAX must be live into b1: %v", liveIn[1])
	}
}

func TestLivenessLoop(t *testing.T) {
	// b0 -> b1 -> b2 -> b1 (loop), b1 -> b3. RBX used in b2, defined in b0.
	g := graphOf([][]int32{{1}, {2, 3}, {1}, nil})
	use := []isa.RegSet{0, 0, isa.RegMask(isa.RBX), 0}
	def := []isa.RegSet{isa.RegMask(isa.RBX), 0, 0, 0}
	liveIn, liveOut := new(Scratch).Liveness(g, use, def)
	// RBX must be live around the whole loop.
	for _, b := range []int{1, 2} {
		if !liveIn[b].Has(isa.RBX) {
			t.Errorf("RBX must be live into b%d", b)
		}
	}
	if !liveOut[0].Has(isa.RBX) {
		t.Errorf("RBX must be live out of b0")
	}
	if liveIn[3].Has(isa.RBX) {
		t.Errorf("RBX must be dead in the exit block")
	}
}
