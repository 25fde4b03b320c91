package perf

import (
	"fmt"
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/elfx"
	"gobolt/internal/ld"
	"gobolt/internal/vm"
	"gobolt/internal/workload"
)

// refRing stands in for what the machine-driving Record read from the
// VM: the ring of the last lbrSize taken transfers the VM kept, and the
// PC (rip), which is where the last instruction fell through or the last
// taken transfer went.
type refRing struct {
	buf      [lbrSize][2]uint64
	pos, cnt int
	rip      uint64
}

func (r *refRing) Inst(addr uint64, size uint8) { r.rip = addr + uint64(size) }
func (r *refRing) Mem(uint64, uint8, bool)      {}

func (r *refRing) Branch(from, to uint64, taken bool, _ vm.BranchKind) {
	if !taken {
		return
	}
	r.rip = to
	r.buf[r.pos] = [2]uint64{from, to}
	r.pos = (r.pos + 1) % lbrSize
	r.cnt++
}

// records returns the held records, most recent last.
func (r *refRing) records() [][2]uint64 {
	n := min(r.cnt, lbrSize)
	out := make([][2]uint64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(r.pos-n+i+lbrSize*2)%lbrSize])
	}
	return out
}

// refRecord is Record as it was when it drove the machine: Run one
// jittered period at a time, add the event's skid with more Run calls
// (EventBranches single-steps to the next taken conditional branch),
// then read the ring or the PC. It checks maxInstr only between periods.
func refRecord(m *vm.Machine, mode Mode, maxInstr uint64) (*Raw, error) {
	if mode.Period == 0 {
		mode.Period = 4096
	}
	raw := &Raw{
		LBR:      mode.LBR,
		Event:    mode.Event,
		Branches: map[[2]uint64]uint64{},
		Samples:  map[uint64]uint64{},
	}
	ring := &refRing{}
	m.SetTracer(ring)
	defer m.SetTracer(nil)
	rng := uint64(0x9E3779B97F4A7C15)
	nextRand := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	start := m.C.Instructions
	for !m.Halted() {
		if maxInstr > 0 && m.C.Instructions-start >= maxInstr {
			break
		}
		jitter := nextRand() % (mode.Period/16 + 1)
		if _, err := m.Run(mode.Period + jitter); err != nil {
			return nil, err
		}
		if m.Halted() {
			break
		}
		skid := uint64(0)
		switch mode.Event {
		case EventCycles:
			skid = 4 + nextRand()%24
		case EventInstructions:
			skid = 1 + nextRand()%3
		case EventBranches:
			before := m.C.TakenBranch
			for i := 0; i < 32 && m.C.TakenBranch == before && !m.Halted(); i++ {
				if _, err := m.Run(1); err != nil {
					return nil, err
				}
			}
		}
		skid >>= uint(mode.PEBS)
		if skid > 0 {
			if _, err := m.Run(skid); err != nil {
				return nil, err
			}
		}
		if m.Halted() {
			break
		}
		raw.NumSamples++
		if mode.LBR {
			for _, r := range ring.records() {
				raw.Branches[r]++
			}
		} else {
			raw.Samples[ring.rip]++
		}
	}
	raw.Retired = m.C.Instructions - start
	return raw, nil
}

// linkPreset compiles and links a workload preset.
func linkPreset(tb testing.TB, spec workload.Spec) *elfx.File {
	tb.Helper()
	objs, err := cc.Compile(workload.Generate(spec), cc.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true, ICF: true})
	if err != nil {
		tb.Fatal(err)
	}
	return res.File
}

// record runs rec on a fresh machine loaded with f.
func record(t *testing.T, f *elfx.File, rec func(*vm.Machine, Mode, uint64) (*Raw, error), mode Mode, maxInstr uint64) (*Raw, *vm.Machine) {
	t.Helper()
	m, err := vm.New(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rec(m, mode, maxInstr)
	if err != nil {
		t.Fatal(err)
	}
	return raw, m
}

// TestSamplerMatchesReference: the sampler, observing one run, takes
// the samples refRecord took by driving the machine: the same count, the
// same retired instructions, and the same count for every LBR pair and
// every sampled address: LBR under every event, non-LBR under every
// event at PEBS 0 and 3, each at periods 4096 and 512.
func TestSamplerMatchesReference(t *testing.T) {
	var modes []Mode
	for _, period := range []uint64{4096, 512} {
		for _, ev := range []Event{EventCycles, EventInstructions, EventBranches} {
			modes = append(modes, Mode{LBR: true, Event: ev, Period: period})
			for _, pebs := range []int{0, 3} {
				modes = append(modes, Mode{Event: ev, Period: period, PEBS: pebs})
			}
		}
	}
	for _, spec := range []workload.Spec{workload.Tiny(), workload.Proxygen()} {
		f := linkPreset(t, spec)
		for _, mode := range modes {
			name := fmt.Sprintf("%s/lbr=%v/%s/pebs=%d/period=%d", spec.Name, mode.LBR, mode.Event, mode.PEBS, mode.Period)
			want, _ := record(t, f, refRecord, mode, 0)
			got, _ := record(t, f, Record, mode, 0)
			if want.NumSamples == 0 {
				t.Fatalf("%s: the reference took no sample", name)
			}
			if got.NumSamples != want.NumSamples || got.Retired != want.Retired {
				t.Errorf("%s: %d samples over %d instructions, want %d over %d",
					name, got.NumSamples, got.Retired, want.NumSamples, want.Retired)
			}
			if diff := countDiff(got.Branches, want.Branches); diff != "" {
				t.Errorf("%s: branches: %s", name, diff)
			}
			if diff := countDiff(got.Samples, want.Samples); diff != "" {
				t.Errorf("%s: samples: %s", name, diff)
			}
		}
	}
}

// countDiff describes the first key whose count differs, or returns "".
func countDiff[K comparable](got, want map[K]uint64) string {
	for k, w := range want {
		if got[k] != w {
			return fmt.Sprintf("%v: %d, want %d", k, got[k], w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("%v: %d, want none", k, g)
		}
	}
	return ""
}

// TestRecordStopsAtMaxInstr: a recording bounded by maxInstr retires
// exactly that many instructions, as a plain Run does, under every
// event (the reference overshot by up to a period plus skid).
func TestRecordStopsAtMaxInstr(t *testing.T) {
	f := linkPreset(t, workload.Tiny())
	const n = 100_000
	for _, mode := range []Mode{
		DefaultMode(),
		{Event: EventBranches, Period: 512},
		{Event: EventInstructions, Period: 4096},
	} {
		raw, m := record(t, f, Record, mode, n)
		if raw.Retired != n || m.C.Instructions != n || m.Halted() {
			t.Errorf("%+v: retired %d (machine %d, halted %v), want %d",
				mode, raw.Retired, m.C.Instructions, m.Halted(), n)
		}
		if raw.NumSamples == 0 {
			t.Errorf("%+v: no sample in %d instructions", mode, n)
		}
	}
}
