package bench

import (
	"regexp"
	"strconv"
	"testing"

	"gobolt/internal/elfx"
	"gobolt/internal/isa"
	"gobolt/internal/perf"
	"gobolt/internal/vm"
)

// condCounter counts each conditional branch's executions and taken
// executions by address.
type condCounter struct {
	runs, taken map[uint64]uint64
	totalTaken  uint64
}

func (c *condCounter) Inst(uint64, uint8)      {}
func (c *condCounter) Mem(uint64, uint8, bool) {}
func (c *condCounter) Branch(from, _ uint64, taken bool, kind vm.BranchKind) {
	if kind != vm.BrCond {
		return
	}
	c.runs[from]++
	if taken {
		c.taken[from]++
		c.totalTaken++
	}
}

// countConds runs f to completion and returns its conditional branch
// counts and its result.
func countConds(t *testing.T, f *elfx.File) (*condCounter, uint64) {
	t.Helper()
	m, err := vm.New(f)
	if err != nil {
		t.Fatal(err)
	}
	c := &condCounter{runs: map[uint64]uint64{}, taken: map[uint64]uint64{}}
	m.SetTracer(c)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Fatal("program did not halt")
	}
	return c, m.Result()
}

// TestFigure2Mechanism is the paper's Figure 2 end to end. foo's `if`
// (foo.mir:2) is inlined into two callers that always take opposite
// sides. A PGO build keyed by source merges the two copies into one
// 50/50 branch, so it lays out neither well; BOLT's binary profile sees
// each copy's bias and lays out both. The test holds that the PGO+LTO
// binary runs two copies of the branch, each at least 99 % one way, and
// that BOLTing it takes strictly fewer conditional branches and computes
// the same result.
func TestFigure2Mechanism(t *testing.T) {
	lab := NewLab(1)
	pgo, err := lab.Subject(figure2, CfgPGOLTO)
	if err != nil {
		t.Fatal(err)
	}
	mode := perf.DefaultMode()
	mode.Period = 512
	fd, err := pgo.Profile(mode)
	if err != nil {
		t.Fatal(err)
	}
	before, want := countConds(t, pgo.File)

	sess, err := analyze(pgo.File, nil)
	if err != nil {
		t.Fatal(err)
	}
	funcs, err := sess.Functions()
	if err != nil {
		t.Fatal(err)
	}
	copies := 0
	for _, fn := range funcs {
		for _, b := range fn.Blocks {
			last := b.LastInst()
			if last == nil || last.I.Op != isa.JCC {
				continue
			}
			if file, line := fn.SourceLine(last); file != "foo.mir" || line != 2 {
				continue
			}
			at := fn.InstAddr(last)
			runs, taken := before.runs[at], before.taken[at]
			if runs == 0 {
				continue
			}
			copies++
			if bias := float64(max(taken, runs-taken)) / float64(runs); bias < 0.99 {
				t.Errorf("%s: foo's branch at %#x taken %d of %d times, want at least 99 %% one way",
					fn.Name, at, taken, runs)
			}
		}
	}
	if copies != 2 {
		t.Fatalf("the PGO+LTO binary runs %d copies of foo's branch, want 2 (one per inlined call site)", copies)
	}

	bolted, _, err := pgo.optimize(fd)
	if err != nil {
		t.Fatal(err)
	}
	after, got := countConds(t, bolted.Output())
	if got != want {
		t.Fatalf("the BOLTed binary computes %#x, PGO+LTO %#x", got, want)
	}
	if after.totalTaken >= before.totalTaken {
		t.Errorf("PGO+LTO+BOLT takes %d conditional branches, PGO+LTO %d: want strictly fewer",
			after.totalTaken, before.totalTaken)
	}
	t.Logf("taken conditional branches: PGO+LTO %d, PGO+LTO+BOLT %d", before.totalTaken, after.totalTaken)

	// The fig2 report's "taken conditional branches" are these counts.
	report, err := Fig2Report(lab)
	if err != nil {
		t.Fatal(err)
	}
	taken := map[string]uint64{}
	for _, m := range regexp.MustCompile(`(?m)^  (\S+) +taken=(\d+) `).FindAllStringSubmatch(report, -1) {
		taken[m[1]], _ = strconv.ParseUint(m[2], 10, 64)
	}
	if taken["PGO+LTO"] != before.totalTaken || taken["PGO+LTO+BOLT"] != after.totalTaken {
		t.Errorf("fig2 reports taken=%d (PGO+LTO) and %d (PGO+LTO+BOLT), want the conditional counts %d and %d:\n%s",
			taken["PGO+LTO"], taken["PGO+LTO+BOLT"], before.totalTaken, after.totalTaken, report)
	}
}
