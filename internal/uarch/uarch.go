// Package uarch is a trace-driven microarchitecture simulator: the
// measurement substrate replacing the paper's Intel servers. It consumes
// the VM's execution trace and models the structures the paper attributes
// BOLT's wins to (Fig 6): the instruction cache and TLB, the data cache
// hierarchy, and the branch predictor, plus a front-end-bound timing model
// that turns miss counts into a CPU-time figure.
//
// Absolute cycle counts are not calibrated to any real part; the
// experiments compare the *same* model across binaries, so relative
// deltas (speedups, miss reductions) are meaningful.
package uarch

import (
	"fmt"
	"strings"

	"gobolt/internal/vm"
)

// CacheCfg shapes one cache level.
type CacheCfg struct {
	SizeKB  int
	Assoc   int
	LineLog uint // log2 of the line size
}

// TLBCfg shapes a TLB.
type TLBCfg struct {
	Entries int
	Assoc   int
	PageLog uint
}

// Config is the machine model. Zero fields take defaults (see
// DefaultConfig); penalties are in cycles.
type Config struct {
	L1I  CacheCfg
	L1D  CacheCfg
	L2   CacheCfg // unified
	LLC  CacheCfg
	ITLB TLBCfg
	DTLB TLBCfg

	GshareBits uint
	BTBEntries int
	RASDepth   int

	IssueWidth     int
	L2Penalty      uint64
	LLCPenalty     uint64
	MemPenalty     uint64
	TLBMissPenalty uint64
	MispredPenalty uint64
	TakenPenalty   uint64 // front-end fetch redirect per taken branch
}

// DefaultConfig models a small Ivy-Bridge-class core.
func DefaultConfig() Config {
	return Config{
		L1I:  CacheCfg{SizeKB: 32, Assoc: 8, LineLog: 6},
		L1D:  CacheCfg{SizeKB: 32, Assoc: 8, LineLog: 6},
		L2:   CacheCfg{SizeKB: 256, Assoc: 8, LineLog: 6},
		LLC:  CacheCfg{SizeKB: 8192, Assoc: 16, LineLog: 6},
		ITLB: TLBCfg{Entries: 128, Assoc: 4, PageLog: 12},
		DTLB: TLBCfg{Entries: 64, Assoc: 4, PageLog: 12},

		GshareBits: 14,
		BTBEntries: 4096,
		RASDepth:   16,

		IssueWidth:     4,
		L2Penalty:      12,
		LLCPenalty:     36,
		MemPenalty:     180,
		TLBMissPenalty: 28,
		MispredPenalty: 15,
		TakenPenalty:   1,
	}
}

// Metrics is the simulator output.
type Metrics struct {
	Instructions uint64
	Cycles       uint64

	L1IAccess, L1IMiss uint64
	L1DAccess, L1DMiss uint64
	L2Access, L2Miss   uint64
	LLCAccess, LLCMiss uint64

	ITLBAccess, ITLBMiss uint64
	DTLBAccess, DTLBMiss uint64

	Branches, BranchMiss uint64
	TakenBranches        uint64

	// The cycle stack: where Cycles went, by hardware structure. The
	// parts sum exactly to Cycles.
	BaseCycles    uint64 // issue at IssueWidth instructions per cycle
	IMissCycles   uint64 // L1I misses charged to L2, LLC or memory
	DMissCycles   uint64 // L1D misses charged to L2, LLC or memory
	ITLBCycles    uint64 // iTLB miss walks
	DTLBCycles    uint64 // dTLB miss walks
	MispredCycles uint64 // mispredicted branches
	TakenCycles   uint64 // fetch redirects on taken branches
}

// IPC returns instructions per cycle.
func (m *Metrics) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Instructions) / float64(m.Cycles)
}

// MissRate is a safe ratio helper.
func MissRate(miss, access uint64) float64 {
	if access == 0 {
		return 0
	}
	return float64(miss) / float64(access)
}

// Reduction returns the relative improvement from base to opt (positive =
// opt is better), e.g. Reduction(base.L1IMiss, opt.L1IMiss).
func Reduction(base, opt uint64) float64 {
	if base == 0 {
		return 0
	}
	return (float64(base) - float64(opt)) / float64(base)
}

// Speedup returns base/opt CPU-time ratio minus 1 (e.g. 0.08 = 8% faster).
func Speedup(base, opt *Metrics) float64 {
	if opt.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles)/float64(opt.Cycles) - 1
}

// cache is a set-associative LRU cache over line/page numbers. Way w of
// set s is entry s*assoc+w of tags and lru.
type cache struct {
	tags    []uint64 // 0 = empty
	lru     []uint64 // access stamps; wide enough never to wrap
	assoc   int
	setMask uint64
	shift   uint
	tick    uint64
}

// newCache builds the named structure of lines entries of 1<<shift
// bytes. Sets are indexed by mask, so it panics unless the set count is
// a power of two: rounding it would model a smaller structure than the
// config names.
func newCache(name string, lines int, assoc int, shift uint) *cache {
	if assoc <= 0 {
		assoc = 1
	}
	nsets := max(lines/assoc, 1)
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("uarch: %s: %d × %d-byte entries in %d ways make %d sets, not a power of two",
			name, lines, 1<<shift, assoc, nsets))
	}
	return &cache{
		tags:    make([]uint64, nsets*assoc),
		lru:     make([]uint64, nsets*assoc),
		assoc:   assoc,
		setMask: uint64(nsets - 1),
		shift:   shift,
	}
}

func newCacheFromCfg(name string, cfg CacheCfg) *cache {
	return newCache(name, cfg.SizeKB*1024>>cfg.LineLog, cfg.Assoc, cfg.LineLog)
}

func newTLB(name string, cfg TLBCfg) *cache {
	return newCache(name, cfg.Entries, cfg.Assoc, cfg.PageLog)
}

// access returns true on hit and updates LRU/fill state.
func (c *cache) access(addr uint64) bool {
	key := addr>>c.shift | 1<<63 // bias so 0 means empty
	first := int((addr>>c.shift)&c.setMask) * c.assoc
	tags := c.tags[first : first+c.assoc]
	lru := c.lru[first : first+c.assoc]
	c.tick++
	for i, t := range tags {
		if t == key {
			lru[i] = c.tick
			return true
		}
	}
	// Miss: replace LRU way.
	victim := 0
	for i := 1; i < len(tags); i++ {
		if lru[i] < lru[victim] {
			victim = i
		}
	}
	tags[victim] = key
	lru[victim] = c.tick
	return false
}

// Sim implements vm.Tracer.
type Sim struct {
	cfg Config
	M   Metrics

	l1i, l1d, l2, llc *cache
	itlb, dtlb        *cache

	gshare  []uint8
	ghist   uint64
	gmask   uint64
	btb     []uint64
	btbMask uint64
	ras     []uint64
	rasTop  int

	lastLine uint64 // last fetched I-line (dedup sequential accesses)
}

// New builds a simulator. A zero Config means DefaultConfig(); any other
// config is used as given, field by field. New panics, naming the field,
// when a cache, TLB or BTB set count is not a power of two or IssueWidth
// or RASDepth is below 1.
func New(cfg Config) *Sim {
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	if cfg.IssueWidth < 1 {
		panic(fmt.Sprintf("uarch: IssueWidth %d is below 1", cfg.IssueWidth))
	}
	if cfg.RASDepth < 1 {
		panic(fmt.Sprintf("uarch: RASDepth %d is below 1", cfg.RASDepth))
	}
	s := &Sim{cfg: cfg}
	s.l1i = newCacheFromCfg("L1I", cfg.L1I)
	s.l1d = newCacheFromCfg("L1D", cfg.L1D)
	s.l2 = newCacheFromCfg("L2", cfg.L2)
	s.llc = newCacheFromCfg("LLC", cfg.LLC)
	s.itlb = newTLB("ITLB", cfg.ITLB)
	s.dtlb = newTLB("DTLB", cfg.DTLB)
	s.gshare = make([]uint8, 1<<cfg.GshareBits)
	s.gmask = uint64(len(s.gshare) - 1)
	n := cfg.BTBEntries
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("uarch: BTB: %d entries, not a power of two", n))
	}
	s.btb = make([]uint64, n)
	s.btbMask = uint64(n - 1)
	s.ras = make([]uint64, cfg.RASDepth)
	s.lastLine = ^uint64(0)
	return s
}

// missPath charges the L2/LLC/memory path shared by I- and D-side misses.
func (s *Sim) missPath(addr uint64) uint64 {
	s.M.L2Access++
	if s.l2.access(addr) {
		return s.cfg.L2Penalty
	}
	s.M.L2Miss++
	s.M.LLCAccess++
	if s.llc.access(addr) {
		return s.cfg.LLCPenalty
	}
	s.M.LLCMiss++
	return s.cfg.MemPenalty
}

// Inst models the fetch of one instruction.
func (s *Sim) Inst(addr uint64, size uint8) {
	s.M.Instructions++
	line := addr >> s.cfg.L1I.LineLog
	endLine := (addr + uint64(size) - 1) >> s.cfg.L1I.LineLog
	for l := line; l <= endLine; l++ {
		if l == s.lastLine {
			continue
		}
		s.lastLine = l
		la := l << s.cfg.L1I.LineLog
		s.M.L1IAccess++
		s.M.ITLBAccess++
		if !s.itlb.access(la) {
			s.M.ITLBMiss++
			s.charge(&s.M.ITLBCycles, s.cfg.TLBMissPenalty)
		}
		if !s.l1i.access(la) {
			s.M.L1IMiss++
			s.charge(&s.M.IMissCycles, s.missPath(la))
		}
	}
}

// Mem models one data access.
func (s *Sim) Mem(addr uint64, size uint8, write bool) {
	s.M.L1DAccess++
	s.M.DTLBAccess++
	if !s.dtlb.access(addr) {
		s.M.DTLBMiss++
		s.charge(&s.M.DTLBCycles, s.cfg.TLBMissPenalty)
	}
	if !s.l1d.access(addr) {
		s.M.L1DMiss++
		s.charge(&s.M.DMissCycles, s.missPath(addr))
	}
}

// Branch models prediction for one control transfer.
func (s *Sim) Branch(from, to uint64, taken bool, kind vm.BranchKind) {
	switch kind {
	case vm.BrCond:
		s.M.Branches++
		idx := (from ^ s.ghist) & s.gmask
		ctr := &s.gshare[idx]
		pred := *ctr >= 2
		if taken && *ctr < 3 {
			*ctr++
		} else if !taken && *ctr > 0 {
			*ctr--
		}
		s.ghist = s.ghist<<1 | b2u(taken)
		miss := pred != taken
		if taken {
			// Taken branches also need the BTB to supply the target in
			// time; code layout that converts taken branches into
			// fall-throughs relieves exactly this pressure (paper §4,
			// pass 9 discussion).
			slot := &s.btb[(from>>1)&s.btbMask]
			if *slot != to {
				miss = true
				*slot = to
			}
			s.M.TakenBranches++
			s.charge(&s.M.TakenCycles, s.cfg.TakenPenalty)
			s.lastLine = ^uint64(0) // fetch redirect
		}
		if miss {
			s.M.BranchMiss++
			s.charge(&s.M.MispredCycles, s.cfg.MispredPenalty)
		}
	case vm.BrUncond:
		s.M.TakenBranches++
		s.charge(&s.M.TakenCycles, s.cfg.TakenPenalty)
		s.lastLine = ^uint64(0)
	case vm.BrIndirect, vm.BrIndCall:
		s.M.Branches++
		s.M.TakenBranches++
		slot := &s.btb[(from>>1)&s.btbMask]
		if *slot != to {
			s.M.BranchMiss++
			s.charge(&s.M.MispredCycles, s.cfg.MispredPenalty)
			*slot = to
		}
		s.charge(&s.M.TakenCycles, s.cfg.TakenPenalty)
		s.lastLine = ^uint64(0)
		if kind == vm.BrIndCall {
			s.pushRAS(from)
		}
	case vm.BrCall:
		s.M.TakenBranches++
		s.charge(&s.M.TakenCycles, s.cfg.TakenPenalty)
		s.lastLine = ^uint64(0)
		s.pushRAS(from)
	case vm.BrRet:
		s.M.Branches++
		s.M.TakenBranches++
		want := s.popRAS()
		// Return addresses are from+call-length; compare approximately by
		// requiring the return to land within 16 bytes after the call.
		if want == 0 || to < want || to > want+16 {
			s.M.BranchMiss++
			s.charge(&s.M.MispredCycles, s.cfg.MispredPenalty)
		}
		s.charge(&s.M.TakenCycles, s.cfg.TakenPenalty)
		s.lastLine = ^uint64(0)
	}
}

func (s *Sim) pushRAS(callAddr uint64) {
	s.ras[s.rasTop%len(s.ras)] = callAddr
	s.rasTop++
}

func (s *Sim) popRAS() uint64 {
	if s.rasTop == 0 {
		return 0
	}
	s.rasTop--
	return s.ras[s.rasTop%len(s.ras)]
}

// charge adds c cycles to Cycles and to one part of the cycle stack.
func (s *Sim) charge(part *uint64, c uint64) {
	*part += c
	s.M.Cycles += c
}

// Finish folds the base pipeline cost into the cycle count; call once
// after the run.
func (s *Sim) Finish() *Metrics {
	s.charge(&s.M.BaseCycles, s.M.Instructions/uint64(s.cfg.IssueWidth))
	return &s.M
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Format renders a perf-stat-like report.
func (m *Metrics) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%16d instructions\n", m.Instructions)
	fmt.Fprintf(&sb, "%16d cycles               # %.2f IPC\n", m.Cycles, m.IPC())
	for _, part := range []struct {
		name   string
		cycles uint64
	}{
		{"base", m.BaseCycles}, {"i-miss", m.IMissCycles}, {"d-miss", m.DMissCycles},
		{"itlb", m.ITLBCycles}, {"dtlb", m.DTLBCycles},
		{"mispredict", m.MispredCycles}, {"taken", m.TakenCycles},
	} {
		fmt.Fprintf(&sb, "%16d   %-18s # %5.2f%% of cycles\n", part.cycles, part.name, 100*MissRate(part.cycles, m.Cycles))
	}
	fmt.Fprintf(&sb, "%16d branches\n", m.Branches)
	fmt.Fprintf(&sb, "%16d branch-misses        # %5.2f%%\n", m.BranchMiss, 100*MissRate(m.BranchMiss, m.Branches))
	fmt.Fprintf(&sb, "%16d L1-icache-misses     # %5.2f%% of %d\n", m.L1IMiss, 100*MissRate(m.L1IMiss, m.L1IAccess), m.L1IAccess)
	fmt.Fprintf(&sb, "%16d L1-dcache-misses     # %5.2f%% of %d\n", m.L1DMiss, 100*MissRate(m.L1DMiss, m.L1DAccess), m.L1DAccess)
	fmt.Fprintf(&sb, "%16d LLC-misses           # %5.2f%% of %d\n", m.LLCMiss, 100*MissRate(m.LLCMiss, m.LLCAccess), m.LLCAccess)
	fmt.Fprintf(&sb, "%16d iTLB-misses          # %5.2f%% of %d\n", m.ITLBMiss, 100*MissRate(m.ITLBMiss, m.ITLBAccess), m.ITLBAccess)
	fmt.Fprintf(&sb, "%16d dTLB-misses          # %5.2f%% of %d\n", m.DTLBMiss, 100*MissRate(m.DTLBMiss, m.DTLBAccess), m.DTLBAccess)
	return sb.String()
}
