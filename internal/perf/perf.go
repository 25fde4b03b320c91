// Package perf is the sampling profiler: the stand-in for `perf record`
// plus the hardware PMU. The PMU observes a run and does not drive it:
// Sampler is a vm.Tracer that, at each sampling interrupt, records its
// own ring of taken transfers (LBR mode) or the interrupted PC (non-LBR
// mode), so one run can feed it beside other tracers. Convert
// symbolizes the raw data into an fdata profile the way perf2bolt does.
// The LBR mispredict flag is written as 0: no decision reads it, and the
// one branch predictor is internal/uarch's.
//
// The model reproduces the §5.1 phenomenology: non-LBR samples suffer
// event-dependent skid (the recorded PC trails the event by several
// instructions, with "cycles" worst and PEBS reducing it), while LBR
// records are exact regardless of where the sample lands — which is why
// the paper finds LBR profiles robust across sampling events.
//
// Whatever the event is called, the sampling period counts *retired
// instructions*: Mode.Event only selects how far the recorded PC skids
// past the interrupt. A non-LBR sample is therefore evidence of time —
// a block of s instructions executed c times draws about c·s/Period
// samples — and consumers that want executions divide by the block's
// size (internal/flow.SampleWeight, applied by core.ApplyProfile).
package perf

import (
	"fmt"

	"gobolt/internal/elfx"
	"gobolt/internal/profile"
	"gobolt/internal/vm"
)

// Event is a hardware sampling event.
type Event string

// Supported events.
const (
	EventCycles       Event = "cycles"
	EventInstructions Event = "instructions"
	EventBranches     Event = "branches"
)

// ParseEvent converts an -event flag value.
func ParseEvent(s string) (Event, error) {
	switch e := Event(s); e {
	case EventCycles, EventInstructions, EventBranches:
		return e, nil
	}
	return "", fmt.Errorf("invalid sampling event %q (want cycles, instructions, or branches)", s)
}

// Mode configures sampling.
type Mode struct {
	LBR bool
	// Event names the hardware event and selects the skid model only;
	// it does not change what Period counts.
	Event Event
	// Period is the number of retired instructions between samples,
	// under every Event (0 = 4096).
	Period uint64
	// PEBS is the precise-event level 0..3; higher levels shrink skid.
	PEBS int
}

// DefaultMode mirrors `perf record -e cycles:u -j any,u` (paper §6.2.1).
func DefaultMode() Mode { return Mode{LBR: true, Event: EventCycles, Period: 4096} }

// lbrSize is the depth of the last-branch record (Intel: 32).
const lbrSize = 32

// Raw is address-level aggregated sample data.
type Raw struct {
	LBR        bool
	Event      Event
	Branches   map[[2]uint64]uint64 // LBR records per taken (from, to) pair
	Samples    map[uint64]uint64    // non-LBR samples per address
	NumSamples uint64
	Retired    uint64
}

// Sampler is the PMU, a vm.Tracer. It counts retired instructions, keeps
// a ring of the last lbrSize taken transfers, and interrupts every Period
// instructions plus jitter and skid. A sample records the ring (LBR mode)
// or the address of the next instruction to retire (non-LBR mode).
type Sampler struct {
	Raw  Raw // the data sampled so far
	mode Mode
	rng  uint64
	// left counts the instructions to retire before the interrupt; at 0
	// the next Inst takes the sample, or starts EventBranches' drift.
	left     uint64
	drifting bool // the sample waits for a taken conditional branch
	ring     [lbrSize][2]uint64
	taken    uint64 // taken transfers pushed into ring
}

// NewSampler returns a sampler armed for its first sample.
func NewSampler(mode Mode) *Sampler {
	if mode.Period == 0 {
		mode.Period = 4096
	}
	s := &Sampler{mode: mode, rng: 0x9E3779B97F4A7C15}
	s.Raw = Raw{LBR: mode.LBR, Event: mode.Event, Branches: map[[2]uint64]uint64{}, Samples: map[uint64]uint64{}}
	s.arm()
	return s
}

// arm counts to the next interrupt: the period, a small deterministic
// jitter that avoids lockstep with loop periods, and the event's skid,
// by which the PMU fires late.
func (s *Sampler) arm() {
	next := func() uint64 {
		s.rng ^= s.rng << 13
		s.rng ^= s.rng >> 7
		s.rng ^= s.rng << 17
		return s.rng
	}
	s.left = s.mode.Period + next()%(s.mode.Period/16+1)
	skid := uint64(0)
	switch s.mode.Event {
	case EventCycles:
		skid = 4 + next()%24
	case EventInstructions:
		skid = 1 + next()%3
	}
	s.left += skid >> uint(s.mode.PEBS)
}

// Inst implements vm.Tracer.
func (s *Sampler) Inst(addr uint64, _ uint8) {
	s.Raw.Retired++
	if s.left == 0 {
		s.interrupt(addr)
	}
	s.left--
}

// Branch implements vm.Tracer.
func (s *Sampler) Branch(from, to uint64, taken bool, kind vm.BranchKind) {
	if !taken {
		return
	}
	s.ring[s.taken%lbrSize] = [2]uint64{from, to}
	s.taken++
	if s.drifting && kind == vm.BrCond {
		s.left = 0
	}
}

// Mem implements vm.Tracer.
func (s *Sampler) Mem(uint64, uint8, bool) {}

// lbr yields the records the ring holds, oldest first: every taken
// transfer so far until there are lbrSize of them, then the last lbrSize.
func (s *Sampler) lbr(yield func([2]uint64) bool) {
	for i := s.taken - min(s.taken, lbrSize); i < s.taken; i++ {
		if !yield(s.ring[i%lbrSize]) {
			return
		}
	}
}

// interrupt runs when the count ends, before the instruction at addr.
func (s *Sampler) interrupt(addr uint64) {
	if s.mode.Event == EventBranches && !s.drifting {
		// Branch events are attributed near branch retirement: drift to just
		// past the next taken conditional branch, 32 instructions at most.
		s.drifting, s.left = true, 32
		return
	}
	s.drifting = false
	s.Raw.NumSamples++
	if s.mode.LBR {
		// LBR contents are exact history: skid does not corrupt them.
		for e := range s.lbr {
			s.Raw.Branches[e]++
		}
	} else {
		s.Raw.Samples[addr]++
	}
	s.arm()
}

// Record runs m to its halt, or until maxInstr instructions retire (0 =
// no limit), with a Sampler per mode as its tracer in place of any other.
func Record(m *vm.Machine, mode Mode, maxInstr uint64) (*Raw, error) {
	s := NewSampler(mode)
	m.SetTracer(s)
	defer m.SetTracer(nil)
	if _, err := m.Run(maxInstr); err != nil {
		return nil, err
	}
	return &s.Raw, nil
}

// Convert symbolizes raw data against the binary's symbol table — the
// perf2bolt step. Addresses not covered by any function symbol (stale
// padding, PLT-less stubs) are dropped, as perf2bolt drops them.
func Convert(raw *Raw, f *elfx.File) *profile.Fdata {
	b := profile.NewBuilder(raw.LBR, string(raw.Event))
	syms := elfx.NewSymbolIndex(f.Symbols)
	locate := func(addr uint64) (profile.Loc, bool) {
		sym, ok := syms.At(addr)
		if !ok {
			return profile.Loc{}, false
		}
		return profile.Loc{Sym: sym.Name, Off: addr - sym.Value}, true
	}
	for key, n := range raw.Branches {
		from, ok1 := locate(key[0])
		to, ok2 := locate(key[1])
		if !ok1 || !ok2 {
			continue
		}
		b.AddBranchN(from, to, n, 0)
	}
	for addr, c := range raw.Samples {
		if at, ok := locate(addr); ok {
			b.AddSampleN(at, c)
		}
	}
	return b.Build()
}

// RecordFile is a convenience wrapper: load, sample, symbolize.
func RecordFile(f *elfx.File, mode Mode, maxInstr uint64) (*profile.Fdata, *vm.Machine, error) {
	m, err := vm.New(f)
	if err != nil {
		return nil, nil, err
	}
	raw, err := Record(m, mode, maxInstr)
	if err != nil {
		return nil, nil, fmt.Errorf("perf: %w", err)
	}
	return Convert(raw, f), m, nil
}
