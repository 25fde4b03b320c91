package vm

import (
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/elfx"
	"gobolt/internal/ld"
	"gobolt/internal/workload"
)

// proxygen links the proxygen preset.
func proxygen(b *testing.B) *elfx.File {
	objs, err := cc.Compile(workload.Generate(workload.Proxygen()), cc.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true, ICF: true})
	if err != nil {
		b.Fatal(err)
	}
	return res.File
}

// BenchmarkNew measures loading the linked proxygen preset: mapping the
// image and pre-decoding and linking every function body.
func BenchmarkNew(b *testing.B) {
	f := proxygen(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := New(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRun measures interpreting the linked proxygen preset to its
// halt, untraced; loading it is not timed. It counts b.N by hand, as a
// b.Loop loop with the timer stopped in it does not end on go1.24.0.
func BenchmarkRun(b *testing.B) {
	f := proxygen(b)
	var instrs uint64
	for range b.N {
		b.StopTimer()
		m, err := New(f)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		instrs += m.C.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
