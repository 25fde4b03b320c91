package perf

import (
	"testing"

	"gobolt/internal/vm"
	"gobolt/internal/workload"
)

// BenchmarkRecord measures one default LBR recording of the proxygen
// preset: the run under the sampler to its halt. Loading the machine is
// not timed. It counts b.N by hand, as a b.Loop loop with the timer
// stopped in it does not end on go1.24.0.
func BenchmarkRecord(b *testing.B) {
	f := linkPreset(b, workload.Proxygen())
	b.ReportAllocs()
	for range b.N {
		b.StopTimer()
		m, err := vm.New(f)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Record(m, DefaultMode(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvert measures symbolizing one LBR recording of the
// proxygen preset against its symbol table (the perf2bolt step).
func BenchmarkConvert(b *testing.B) {
	f := linkPreset(b, workload.Proxygen())
	m, err := vm.New(f)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := Record(m, DefaultMode(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		Convert(raw, f)
	}
}
