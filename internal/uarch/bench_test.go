package uarch

import (
	"testing"

	"gobolt/internal/cc"
	"gobolt/internal/ld"
	"gobolt/internal/vm"
	"gobolt/internal/workload"
)

// BenchmarkSim measures a simulated run of the proxygen preset on its
// training input under DefaultConfig: the VM interpreting it to its halt
// with every instruction, branch and data access fed to the simulator.
func BenchmarkSim(b *testing.B) {
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
		m, err := vm.New(res.File)
		if err != nil {
			b.Fatal(err)
		}
		sim := New(DefaultConfig())
		m.SetTracer(sim)
		if _, err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		sim.Finish()
	}
}
