package vm

import (
	"hash"
	"hash/fnv"
	"testing"
	"unsafe"

	"gobolt/internal/cc"
	"gobolt/internal/elfx"
	"gobolt/internal/ld"
	"gobolt/internal/workload"
)

// traceHash folds every Tracer event into one FNV-1a hash.
type traceHash struct{ sum hash.Hash64 }

func (t *traceHash) word(tag byte, a, b uint64, c byte) {
	var buf [18]byte
	buf[0], buf[17] = tag, c
	for i := range 8 {
		buf[1+i] = byte(a >> (8 * i))
		buf[9+i] = byte(b >> (8 * i))
	}
	t.sum.Write(buf[:])
}

func (t *traceHash) Inst(addr uint64, size uint8) { t.word('i', addr, uint64(size), 0) }

func (t *traceHash) Branch(from, to uint64, taken bool, kind BranchKind) {
	c := byte(kind) << 1
	if taken {
		c |= 1
	}
	t.word('b', from, to, c)
}

func (t *traceHash) Mem(addr uint64, size uint8, write bool) {
	c := byte(0)
	if write {
		c = 1
	}
	t.word('m', addr, uint64(size), c)
}

// TestLinkedRunMatchesStepping: Run(1) looks every instruction up by
// address, so stepping a machine one instruction at a time is the oracle
// for Run(0), which follows the links linkTarget makes on a transfer's
// first run. Both must retire the same instructions with the same
// counters, result and trace (every Inst, Branch and Mem event, so every
// taken transfer a sampler's ring would hold), on a preset and on a
// program whose throws unwind through CFI. A decoded entry is pinned at 24 bytes: the
// 16-byte isa.Inst, which holds its length, plus its fall-through flag and link.
func TestLinkedRunMatchesStepping(t *testing.T) {
	if size := unsafe.Sizeof(decoded{}); size != 24 {
		t.Errorf("decoded is %d bytes, want 24", size)
	}
	objs, err := cc.Compile(workload.Generate(workload.Proxygen()), cc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true, ICF: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		file *elfx.File
	}{
		{"proxygen", res.File},
		{"exceptions", buildProgram(t, exceptionProgram(), cc.DefaultOptions(), ld.Options{})},
	} {
		run := func(step bool) (*Machine, uint64) {
			m, err := New(tc.file)
			if err != nil {
				t.Fatal(err)
			}
			th := &traceHash{fnv.New64a()}
			m.SetTracer(th)
			budget := uint64(0)
			if step {
				budget = 1
			}
			for !m.Halted() {
				if _, err := m.Run(budget); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			}
			return m, th.sum.Sum64()
		}
		stepped, steppedTrace := run(true)
		linked, linkedTrace := run(false)
		if stepped.C != linked.C {
			t.Errorf("%s: counters %+v linked, %+v stepped", tc.name, linked.C, stepped.C)
		}
		if stepped.Result() != linked.Result() {
			t.Errorf("%s: result %d linked, %d stepped", tc.name, linked.Result(), stepped.Result())
		}
		if steppedTrace != linkedTrace {
			t.Errorf("%s: trace hash %#x linked, %#x stepped", tc.name, linkedTrace, steppedTrace)
		}
		if linked.C.Instructions == 0 || (tc.name == "exceptions" && linked.C.Throws == 0) {
			t.Errorf("%s: ran %d instructions and %d throws", tc.name, linked.C.Instructions, linked.C.Throws)
		}
	}
}
