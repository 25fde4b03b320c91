package bench

import (
	"sort"
	"testing"

	"gobolt/internal/elfx"
	"gobolt/internal/perf"
	"gobolt/internal/vm"
	"gobolt/internal/workload"
)

type pageProbe struct {
	pages map[uint64]uint64
}

func (p *pageProbe) Inst(addr uint64, size uint8)                           { p.pages[addr>>12] += uint64(size) }
func (p *pageProbe) Branch(from, to uint64, taken bool, kind vm.BranchKind) {}
func (p *pageProbe) Mem(addr uint64, size uint8, write bool)                {}

// TestPagePackingImproves asserts the Figure 9 packing effect: after
// BOLT, 99% of instruction fetches fit in no more pages than before.
func TestPagePackingImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("full HHVM build+simulate experiment (~15s); run without -short")
	}
	s, err := NewLab(0.3).Subject(workload.HHVM(), CfgHFSortLTO)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := s.Profile(perf.DefaultMode())
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := s.optimize(fd)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(name string, f *elfx.File) int {
		m, err := vm.New(f)
		if err != nil {
			t.Fatal(err)
		}
		p := &pageProbe{pages: map[uint64]uint64{}}
		m.SetTracer(p)
		if _, err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		type pg struct {
			page  uint64
			bytes uint64
		}
		var list []pg
		var total uint64
		for k, v := range p.pages {
			list = append(list, pg{k, v})
			total += v
		}
		sort.Slice(list, func(i, j int) bool { return list[i].bytes > list[j].bytes })
		var cum uint64
		n99 := 0
		for _, e := range list {
			cum += e.bytes
			n99++
			if float64(cum) > 0.99*float64(total) {
				break
			}
		}
		bySec := map[string]int{}
		for i, e := range list {
			if i >= 60 {
				break
			}
			sec := f.SectionFor(e.page << 12)
			name := "?"
			if sec != nil {
				name = sec.Name
			}
			bySec[name]++
		}
		t.Logf("%s: %d pages touched, %d pages for 99%%; top-60 pages by section: %v",
			name, len(list), n99, bySec)
		return n99
	}
	basePages := probe("baseline", s.File)
	boltPages := probe("bolted", sess.Output())
	if boltPages > basePages {
		t.Errorf("99%%-fetch page set grew: %d -> %d", basePages, boltPages)
	}
}
