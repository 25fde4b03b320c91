package perf

import (
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/ld"
	"gobolt/internal/vm"
	"gobolt/internal/workload"
)

// BenchmarkConvert measures symbolizing one LBR recording of the
// proxygen preset against its symbol table (the perf2bolt step).
func BenchmarkConvert(b *testing.B) {
	objs, err := cc.Compile(workload.Generate(workload.Proxygen()), cc.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true, ICF: true})
	if err != nil {
		b.Fatal(err)
	}
	m, err := vm.New(res.File)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := Record(m, DefaultMode(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		Convert(raw, res.File)
	}
}
