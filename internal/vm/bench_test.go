package vm

import (
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/ld"
	"gobolt/internal/workload"
)

// BenchmarkNew measures loading the linked proxygen preset: mapping the
// image and pre-decoding every function body.
func BenchmarkNew(b *testing.B) {
	objs, err := cc.Compile(workload.Generate(workload.Proxygen()), cc.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true, ICF: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := New(res.File); err != nil {
			b.Fatal(err)
		}
	}
}
