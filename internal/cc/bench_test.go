package cc

import (
	"testing"

	"gobolt/internal/workload"
)

// BenchmarkCompile measures lowering the proxygen preset to objects:
// inlining, which clones only the functions it splices into, and the
// parallel per-function lowering.
func BenchmarkCompile(b *testing.B) {
	p := workload.Generate(workload.Proxygen())
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Compile(p, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
