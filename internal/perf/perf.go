// Package perf is the sampling profiler: the stand-in for `perf record`
// plus the hardware PMU. It interrupts the VM every sampling period,
// reads either the LBR ring (LBR mode) or the interrupted PC (non-LBR
// mode), and aggregates raw address-level data; Convert symbolizes it into
// an fdata profile the way perf2bolt does.
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

// branchCount aggregates one (from,to) pair.
type branchCount struct {
	Count    uint64
	Mispreds uint64
}

// Raw is address-level aggregated sample data.
type Raw struct {
	LBR        bool
	Event      Event
	Branches   map[[2]uint64]*branchCount
	Samples    map[uint64]uint64
	NumSamples uint64
	Retired    uint64
}

// Record runs the machine to completion (or maxInstr), sampling per mode.
func Record(m *vm.Machine, mode Mode, maxInstr uint64) (*Raw, error) {
	if mode.Period == 0 {
		mode.Period = 4096
	}
	raw := &Raw{
		LBR:      mode.LBR,
		Event:    mode.Event,
		Branches: map[[2]uint64]*branchCount{},
		Samples:  map[uint64]uint64{},
	}
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
		// Small deterministic jitter avoids lockstep with loop periods.
		jitter := nextRand() % (mode.Period/16 + 1)
		if _, err := m.Run(mode.Period + jitter); err != nil {
			return nil, err
		}
		if m.Halted() {
			break
		}
		// Event-dependent skid: the PMU fires late by a few instructions.
		skid := uint64(0)
		switch mode.Event {
		case EventCycles:
			skid = 4 + nextRand()%24
		case EventInstructions:
			skid = 1 + nextRand()%3
		case EventBranches:
			// Branch events are attributed near branch retirement: drift
			// to just past the next taken branch.
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
			// LBR contents are exact history: skid does not corrupt them.
			for _, r := range m.LBR() {
				key := [2]uint64{r.From, r.To}
				e := raw.Branches[key]
				if e == nil {
					e = &branchCount{}
					raw.Branches[key] = e
				}
				e.Count++
				if r.Mispred {
					e.Mispreds++
				}
			}
		} else {
			raw.Samples[m.RIP()]++
		}
	}
	raw.Retired = m.C.Instructions - start
	return raw, nil
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
	for key, e := range raw.Branches {
		from, ok1 := locate(key[0])
		to, ok2 := locate(key[1])
		if !ok1 || !ok2 {
			continue
		}
		b.AddBranchN(from, to, e.Count, e.Mispreds)
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
