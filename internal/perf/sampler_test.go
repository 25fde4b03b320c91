package perf

import (
	"math"
	"testing"

	"gobolt/internal/vm"
	"gobolt/internal/workload"
)

// history is a test tracer that keeps every taken transfer of a run, in
// order.
type history struct{ taken [][2]uint64 }

func (h *history) Inst(uint64, uint8)      {}
func (h *history) Mem(uint64, uint8, bool) {}

func (h *history) Branch(from, to uint64, taken bool, _ vm.BranchKind) {
	if taken {
		h.taken = append(h.taken, [2]uint64{from, to})
	}
}

// last returns the records an LBR holds after transfers: all of them
// before the lbrSize-th, the last lbrSize after.
func last(transfers [][2]uint64) [][2]uint64 {
	return transfers[len(transfers)-min(len(transfers), lbrSize):]
}

// TestLBRRecordsTakenBranches steps the tiny preset (jumps, calls,
// returns, throws and indirect transfers) one instruction at a time
// with the sampler beside a tracer that keeps every taken transfer.
// After each step the ring holds every taken transfer so far until
// there are 32 of them, then the last 32, oldest first; and each sample
// records what the ring held when it was taken, before and after the
// ring fills.
func TestLBRRecordsTakenBranches(t *testing.T) {
	f := linkPreset(t, workload.Tiny())
	m, err := vm.New(f)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(Mode{LBR: true, Event: EventInstructions, Period: 64})
	h := &history{}
	m.SetTracer(vm.TeeTracer{s, h})
	want := map[[2]uint64]uint64{}
	var samples, before, after uint64
	for range 5000 {
		n := len(h.taken)
		if _, err := m.Run(1); err != nil {
			t.Fatal(err)
		}
		if s.Raw.NumSamples > samples {
			// Taken when this instruction was about to retire, so
			// before its transfer reached the ring.
			samples++
			if n < lbrSize {
				before++
			} else {
				after++
			}
			for _, e := range last(h.taken[:n]) {
				want[e]++
			}
		}
		var held [][2]uint64
		for e := range s.lbr {
			held = append(held, e)
		}
		wantHeld := last(h.taken)
		if len(held) != len(wantHeld) {
			t.Fatalf("after %d taken transfers the ring holds %d, want %d", len(h.taken), len(held), len(wantHeld))
		}
		for i := range held {
			if held[i] != wantHeld[i] {
				t.Fatalf("after %d taken transfers, ring entry %d is %#x, want %#x", len(h.taken), i, held[i], wantHeld[i])
			}
		}
	}
	if before == 0 || after == 0 {
		t.Fatalf("%d samples before the ring filled and %d after; want both", before, after)
	}
	if diff := countDiff(s.Raw.Branches, want); diff != "" {
		t.Errorf("sampled records: %s", diff)
	}
}

// exactCounter counts every taken transfer of a run, by pair and by
// kind.
type exactCounter struct {
	pairs map[[2]uint64]uint64
	kinds [vm.BrRet + 1]uint64
}

func (e *exactCounter) Inst(uint64, uint8)      {}
func (e *exactCounter) Mem(uint64, uint8, bool) {}

func (e *exactCounter) Branch(from, to uint64, taken bool, kind vm.BranchKind) {
	if taken {
		e.pairs[[2]uint64{from, to}]++
		e.kinds[kind]++
	}
}

// TestSamplerUnbiased: on one proxygen run, the default LBR sampler's
// share of records for each taken (from, to) pair estimates that pair's
// share of every taken transfer the run made. For each pair with at
// least minExpected expected records, the LBR share must lie within z
// binomial standard deviations, sqrt(p(1-p)/R) over all R records, of
// the exact share p. The 32 records of one sample are consecutive
// transfers, not independent draws, so the spread is wider than the
// binomial one; z = 6 leaves room for that (the worst pair reads 3.4).
// A sampler that drops a kind of transfer from its ring (returns, say)
// fails on that kind's pairs. The exact counter is checked against the
// VM's own counter of taken conditional branches.
func TestSamplerUnbiased(t *testing.T) {
	const (
		z           = 6
		minExpected = 100
	)
	m, err := vm.New(linkPreset(t, workload.Proxygen()))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(DefaultMode())
	exact := &exactCounter{pairs: map[[2]uint64]uint64{}}
	m.SetTracer(vm.TeeTracer{s, exact})
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if exact.kinds[vm.BrCond] != m.C.TakenBranch {
		t.Errorf("exact counter saw %d taken conditional branches, the VM counted %d", exact.kinds[vm.BrCond], m.C.TakenBranch)
	}
	var total, records uint64
	for _, c := range exact.pairs {
		total += c
	}
	for pair, c := range s.Raw.Branches {
		if exact.pairs[pair] == 0 {
			t.Errorf("%#x: %d records of a transfer the run never made", pair, c)
		}
		records += c
	}
	checked := 0
	for pair, c := range exact.pairs {
		p := float64(c) / float64(total)
		if p*float64(records) < minExpected {
			continue
		}
		checked++
		q := float64(s.Raw.Branches[pair]) / float64(records)
		if bound := z * math.Sqrt(p*(1-p)/float64(records)); math.Abs(q-p) > bound {
			t.Errorf("%#x: LBR share %.5f, exact share %.5f, bound ±%.5f", pair, q, p, bound)
		}
	}
	if checked < 40 {
		t.Errorf("only %d pairs have %d expected records; want at least 40", checked, minExpected)
	}
}
