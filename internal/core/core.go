// Package core is the gobolt engine: the paper's primary contribution.
//
// It implements the rewriting pipeline of Figure 3 — function discovery,
// debug-info and profile reading, disassembly, CFG construction, an
// optimization pipeline (Table 1, implemented in internal/passes), code
// emission, and binary rewriting — operating on fully linked ELF
// executables plus sample-based fdata profiles.
//
// Like BOLT, gobolt is conservative: functions it cannot fully analyze
// (indirect tail calls, unbounded jump tables, undecodable bytes) are
// marked non-simple and left untouched while the rest of the binary is
// optimized (paper §3.1, §6.4).
//
// Every stage — NewContext, ApplyProfile, PassManager.Run, Rewrite —
// records itself the same way: one row per phase appended to
// BinaryContext.Timings, tagged with its group ("load", "pass", "emit").
package core

import (
	"fmt"
	"sort"

	"gobolt/internal/cfi"
	"gobolt/internal/dbg"
	"gobolt/internal/elfx"
	"gobolt/internal/hfsort"
	"gobolt/internal/isa"
	"gobolt/internal/layout"
	"gobolt/internal/obsv"
)

// Options mirrors the llvm-bolt command line used in the paper (§6.2.1):
// -reorder-blocks=cache+ -reorder-functions=hfsort+ -split-functions=3
// -split-all-cold -split-eh -icf=1.
type Options struct {
	ReorderBlocks    layout.Algorithm
	ReorderFunctions hfsort.Algorithm
	SplitFunctions   int // 0 = off, >=1 = split cold code
	SplitAllCold     bool
	SplitEH          bool
	ICF              bool
	ICP              bool
	InlineSmall      bool
	SimplifyROLoads  bool
	PLT              bool
	Peepholes        bool
	StripRepRet      bool
	FrameOpts        bool
	ShrinkWrapping   bool
	SCTC             bool
	UCE              bool

	DynoStats           bool
	UpdateDebugSections bool
	// Lite skips functions with no profile samples entirely.
	Lite bool
	// EnableBAT emits the BOLT Address Translation table (.bolt.bat) into
	// the rewritten binary so profiles sampled on the optimized binary can
	// be translated back to input coordinates (§7.3 continuous profiling).
	EnableBAT bool
	// StaleMatching recovers profile records whose (function, offset)
	// pairs no longer resolve by matching CFG blocks against the shapes
	// carried in a v2 profile (arXiv:2401.17168); off = drop them, the
	// classic perf2bolt behaviour.
	StaleMatching bool
	// InferFlow selects the minimum-cost-flow profile-inference stage
	// (internal/flow), the production replacement for the §5.1 "non-ideal
	// algorithm": InferAuto (default) solves MCF for non-LBR sample
	// profiles and leaves LBR profiles to classic flow repair; InferAlways
	// additionally repairs LBR/stale/BAT-translated profiles after
	// repairFlow; InferNever keeps the legacy proportional estimator.
	InferFlow InferMode

	// Jobs bounds the worker pools of every parallel pipeline phase:
	// the loader's per-function disassembly+CFG stage, the PassManager's
	// function passes, and the emitter's per-function code generation
	// (0 = GOMAXPROCS, 1 = fully serial). Output is bit-identical for
	// every value.
	Jobs int
	// Trace, when non-nil, records a span for every pipeline phase and
	// every worker-pool task into the obsv tracer (exported as Chrome
	// trace-event JSON by `gobolt -trace-out`). nil disables tracing;
	// every recording site nil-checks first, so the hot paths stay
	// allocation-free when tracing is off.
	Trace *obsv.Tracer `json:"-"`
}

// InferMode selects how ApplyProfile reconstructs consistent counts
// from the attached samples (the profile:infer stage).
type InferMode int

const (
	// InferAuto solves minimum-cost flow for non-LBR sample profiles —
	// where edges must be reconstructed from scratch — and applies only
	// classic flow repair (§5.2) to LBR profiles. The default.
	InferAuto InferMode = iota
	// InferAlways additionally runs the MCF consistency repair on LBR,
	// stale-matched, and BAT-translated profiles after repairFlow.
	InferAlways
	// InferNever keeps the paper's §5.1 proportional estimator for
	// non-LBR profiles (the deliberately "non-ideal algorithm" —
	// useful as the boltbench comparison baseline).
	InferNever
)

// String renders the mode the way the -infer-flow flag spells it.
func (m InferMode) String() string {
	switch m {
	case InferAlways:
		return "always"
	case InferNever:
		return "never"
	default:
		return "auto"
	}
}

// ParseInferMode converts a -infer-flow flag value.
func ParseInferMode(s string) (InferMode, error) {
	switch s {
	case "auto", "":
		return InferAuto, nil
	case "always":
		return InferAlways, nil
	case "never":
		return InferNever, nil
	}
	return InferAuto, fmt.Errorf("invalid infer-flow mode %q (want auto, always, or never)", s)
}

// Normalized upgrades an unconfigured Options value to DefaultOptions.
// Historically `core.Options{}` silently meant "every pass off" — a
// footgun for callers that only wanted a context to analyze (compute
// shapes, apply a profile) and accidentally also disabled stale matching
// and BAT. Every pipeline entry point (NewContext, passes.BuildPipeline)
// normalizes its options, so an unconfigured value now means "the
// paper's defaults".
//
// "Unconfigured" ignores the operational knobs that do not select
// passes — Jobs, DynoStats, Trace — so `Options{Jobs: n}` means
// "defaults at n workers" for every n, not "all passes off unless n is
// 0". Turning every optimization off deliberately still works: start
// from DefaultOptions() and clear fields, or set any pass-selection
// field.
func (o Options) Normalized() Options {
	probe := o
	probe.Jobs = 0
	probe.DynoStats = false
	probe.Trace = nil
	if probe != (Options{}) {
		return o
	}
	d := DefaultOptions()
	d.Jobs = o.Jobs
	d.DynoStats = o.DynoStats
	d.Trace = o.Trace
	return d
}

// DefaultOptions reproduces the paper's evaluation configuration.
func DefaultOptions() Options {
	return Options{
		ReorderBlocks:       layout.AlgoCache,
		ReorderFunctions:    hfsort.AlgoPlus,
		SplitFunctions:      3,
		SplitAllCold:        true,
		SplitEH:             true,
		ICF:                 true,
		ICP:                 true,
		InlineSmall:         true,
		SimplifyROLoads:     true,
		PLT:                 true,
		Peepholes:           true,
		StripRepRet:         true,
		FrameOpts:           true,
		ShrinkWrapping:      true,
		SCTC:                true,
		UCE:                 true,
		UpdateDebugSections: true,
		EnableBAT:           true,
		StaleMatching:       true,
	}
}

// Inst is one instruction plus gobolt's annotations (the MCInst
// annotation mechanism from paper §3.3). It is a pointer-free value of at
// most 80 bytes (TestInstLayout): every phase streams the instruction
// slabs and the collector never scans them, so the rare facts — source
// file, symbolic target, jump table, landing pad — are small indices into
// tables owned by the function or the context, 0 meaning none.
type Inst struct {
	I    isa.Inst
	Addr uint64 // original address; 0 for synthesized instructions
	// MemTarget is the resolved absolute address of a RIP-relative memory
	// operand (0 = none/unresolved).
	MemTarget uint64

	// Src is one plus the index of the .debug_line entry covering the
	// instruction's origin (see BinaryFunction.SourceLine; the table is
	// the context's, so this one survives a copy across functions).
	Src int32
	// CFIIdx indexes the function's interned CFI state table: the unwind
	// state in effect AT this instruction. -1 = unknown/na.
	CFIIdx int32

	// TargetSym names an external direct-call/branch target.
	TargetSym FuncRef
	// ImmSym, when set, makes the instruction's 32-bit immediate the
	// absolute address of the function (ICP's `cmp $target, %reg`).
	ImmSym FuncRef

	// JT selects the jump table driving this indirect jump and LP the
	// landing pad covering this call, both in the owning function's tables
	// (BinaryFunction.JumpTable, BinaryFunction.LandingPad): an Inst
	// carrying either must not be copied into another function.
	JT   uint16
	LP   uint16
	Size uint8
}

// FuncRef names a function of the context: its ordinal in
// BinaryContext.Funcs plus one, so the zero value is "no function".
type FuncRef int32

// NoFunc is the FuncRef of an instruction with no symbolic target.
const NoFunc FuncRef = 0

// Ref returns the reference instructions use to name f.
func (f *BinaryFunction) Ref() FuncRef { return FuncRef(f.ordIdx + 1) }

// Func resolves a reference; nil for NoFunc.
func (ctx *BinaryContext) Func(r FuncRef) *BinaryFunction {
	if r == NoFunc {
		return nil
	}
	return ctx.Funcs[r-1]
}

// SourceLine returns the source origin of in (from .debug_line), "" and
// 0 when it has none.
func (f *BinaryFunction) SourceLine(in *Inst) (file string, line int32) {
	return sourceAt(f.lines, in.Src)
}

// sourceAt resolves an Inst.Src value against the context's line table.
func sourceAt(t *dbg.Table, src int32) (file string, line int32) {
	if src == 0 {
		return "", 0
	}
	e := &t.Entries[src-1]
	return t.Files[e.File], int32(e.Line)
}

// IsCall reports whether the instruction is any call form.
func (in *Inst) IsCall() bool { return in.I.IsCall() }

// Edge is a weighted CFG edge.
type Edge struct {
	To       *BasicBlock
	Count    uint64
	Mispreds uint64
}

// BasicBlock is a node of the reconstructed CFG.
type BasicBlock struct {
	Index int
	Label string
	Addr  uint64 // original start address
	Insts []Inst

	// Succs ordering convention: for a conditional branch, Succs[0] is
	// the taken target and Succs[1] the fall-through; for unconditional
	// or fall-through blocks, Succs[0] is the sole successor; for jump
	// tables, one entry per distinct target.
	Succs []Edge
	Preds []*BasicBlock

	// LPs are landing pads reachable from calls in this block.
	LPs []*BasicBlock

	ExecCount uint64
	CFIIn     int32
	IsLP      bool
	IsCold    bool // assigned to the cold fragment by splitting
	IsEntry   bool
}

// LastInst returns the final instruction or nil.
func (b *BasicBlock) LastInst() *Inst {
	if len(b.Insts) == 0 {
		return nil
	}
	return &b.Insts[len(b.Insts)-1]
}

// JumpTable describes a recovered jump table (paper §3.2: PIC tables must
// be rediscovered by analysis because their relocations are discarded).
type JumpTable struct {
	Addr      uint64
	EntrySize int
	PIC       bool
	Targets   []*BasicBlock
	SymName   string
}

// BinaryFunction is one discovered function.
type BinaryFunction struct {
	Name    string
	Aliases []string
	Addr    uint64
	Size    uint64
	Section string
	Bytes   []byte

	Simple bool
	Reason string // why non-simple

	Blocks    []*BasicBlock // current layout order
	cfiStates []cfi.State
	JTs       []*JumpTable

	HasLSDA   bool
	ExecCount uint64
	Sampled   bool // any profile data attached
	// ProfileAcc estimates flow-equation consistency (Fig 4 "Profile Acc").
	ProfileAcc float64

	// FoldedInto is set by ICF when this function's body was replaced by
	// a reference to another function.
	FoldedInto *BinaryFunction

	// ICFDigest caches the digest of the canonical body computed by the
	// (parallel) ICF hash pass, 0 = none; the sequential fold pass consumes
	// and clears it, so a stale digest never survives into a later round.
	ICFDigest uint64

	// NoInlineSite is set by the (parallel) inline-small scan on a function
	// with no direct call to a single-block function: nothing the splice
	// pass could act on, whatever earlier splices make of the callees. The
	// sequential splice pass skips a marked function and clears the mark;
	// an unscanned function is simply visited.
	NoInlineSite bool

	// IsSplit marks functions whose cold blocks go to the cold section.
	IsSplit bool

	// ordIdx is this function's index in BinaryContext.Funcs (assigned
	// once after discovery sorts the list). Emission packs it into
	// numeric relocation symbols and the rewriter uses it to index
	// per-function side tables without map lookups.
	ordIdx int

	// lines is the context's line table, which Inst.Src indexes.
	lines *dbg.Table
	// lps holds the distinct (landing pad, action) pairs of the LSDA;
	// Inst.LP indexes it (one-based).
	lps []landingPad
}

// landingPad is one exception-table target: the handler block and the
// action record the unwinder passes it.
type landingPad struct {
	block  *BasicBlock
	action int32
}

// JumpTable returns the table driving the indirect jump in, nil when in
// is not a jump-table dispatch.
func (f *BinaryFunction) JumpTable(in *Inst) *JumpTable {
	if in.JT == 0 {
		return nil
	}
	return f.JTs[in.JT-1]
}

// LandingPad returns the handler block and action covering the call in,
// nil and 0 when an exception unwinds straight through it.
func (f *BinaryFunction) LandingPad(in *Inst) (*BasicBlock, int32) {
	if in.LP == 0 {
		return nil, 0
	}
	lp := f.lps[in.LP-1]
	return lp.block, lp.action
}

// InternState interns a CFI state and returns its index. It is hot under
// the parallel loader (one call per instruction of every framed
// function); a function has a handful of distinct states, and consecutive
// instructions mostly share one, so a backwards scan beats a map.
func (f *BinaryFunction) InternState(st cfi.State) int32 {
	for i := len(f.cfiStates) - 1; i >= 0; i-- {
		if f.cfiStates[i] == st {
			return int32(i)
		}
	}
	f.cfiStates = append(f.cfiStates, st)
	return int32(len(f.cfiStates) - 1)
}

// StateAt returns the interned CFI state by index.
func (f *BinaryFunction) StateAt(idx int32) *cfi.State {
	if idx < 0 || int(idx) >= len(f.cfiStates) {
		return nil
	}
	return &f.cfiStates[idx]
}

// contains reports whether addr lies inside the function's input bytes.
func (f *BinaryFunction) contains(addr uint64) bool { return addr-f.Addr < f.Size }

// BlockAt finds the block starting at the given original address by a
// linear scan, so it stays correct after passes reorder the blocks (the
// emitter's old-address mapping); while the blocks are still in address
// order, blockStarting answers the same question by binary search.
func (f *BinaryFunction) BlockAt(addr uint64) *BasicBlock {
	for _, b := range f.Blocks {
		if b.Addr == addr {
			return b
		}
	}
	return nil
}

// blockContaining finds the block whose original instruction range covers
// addr: the last block starting at or before it. Like blockStarting and
// instAt it binary searches the loader's address order, so all three
// serve the loader and profile matching only and are not offered to
// passes, which reorder and renumber blocks.
func (f *BinaryFunction) blockContaining(addr uint64) *BasicBlock {
	i := sort.Search(len(f.Blocks), func(i int) bool { return f.Blocks[i].Addr > addr })
	if i == 0 {
		return nil
	}
	return f.Blocks[i-1]
}

// blockStarting returns the block that starts exactly at addr, nil when
// addr is mid-block or outside the function.
func (f *BinaryFunction) blockStarting(addr uint64) *BasicBlock {
	if b := f.blockContaining(addr); b != nil && b.Addr == addr {
		return b
	}
	return nil
}

// instAt returns the block and instruction at an original address.
func (f *BinaryFunction) instAt(addr uint64) (*BasicBlock, *Inst) {
	b := f.blockContaining(addr)
	if b == nil {
		return nil, nil
	}
	i := sort.Search(len(b.Insts), func(i int) bool { return b.Insts[i].Addr >= addr })
	if i == len(b.Insts) || b.Insts[i].Addr != addr {
		return nil, nil
	}
	return b, &b.Insts[i]
}

// BinaryContext owns everything gobolt knows about the input binary.
type BinaryContext struct {
	File *elfx.File
	Opts Options

	Funcs  []*BinaryFunction
	ByName map[string]*BinaryFunction

	// HasRelocs is true when the binary was linked with --emit-relocs,
	// enabling relocations mode (function reordering; paper §3.2).
	HasRelocs bool

	// PLTStubs maps stub address -> final target address (via GOT).
	PLTStubs map[uint64]uint64

	LineTable *dbg.Table

	fdes     []cfi.FDE
	lsdaData []byte
	lsdaBase uint64

	// CallTargets histograms indirect-call targets per call-site address
	// (filled by profile application, consumed by ICP).
	CallTargets map[uint64]map[string]uint64

	// CallEdges is the weighted dynamic call graph (caller -> callee)
	// observed in the profile; reorder-functions feeds it to HFSort.
	CallEdges map[[2]string]uint64

	// ProfileLBR records which §5 profile mode produced the attached data.
	ProfileLBR bool

	// FuncOrder is the new function layout (set by reorder-functions).
	FuncOrder []string

	// Metrics is the typed registry behind the pipeline's statistics:
	// declared counters (see StatDefs), gauges, and the per-function
	// flow-accuracy / stale-match-quality histograms. It is the source
	// of truth for counts; Stats below aliases its live counter map.
	Metrics *obsv.Registry

	// Stats is the read-side view of Metrics' counters — the same live
	// by-name map the registry maintains (a key is present iff its count
	// is non-zero). Pool workers count into private shards merged at the
	// barrier; CountStat goes through the registry's lock. Read it only
	// between passes.
	Stats map[string]int64

	// Timings is the run's one instrumentation record, in execution order
	// (see begin/end); the bolt package's Report.WriteTimings renders it.
	Timings []PassTiming

	// FlowAccBefore/FlowAccAfter are the count-weighted flow-equation
	// consistency of the profiled CFGs before and after the
	// profile:infer stage (1.0 = every block's count equals its
	// out-flow); InferredFuncs counts the functions the minimum-cost
	// flow solver rebalanced. Set by ApplyProfile.
	FlowAccBefore, FlowAccAfter float64
	InferredFuncs               int
}

// FuncByAddr returns the function starting at addr.
func (ctx *BinaryContext) FuncByAddr(addr uint64) *BinaryFunction {
	if f := ctx.FuncContaining(addr); f != nil && f.Addr == addr {
		return f
	}
	return nil
}

// FuncContaining returns the function covering addr. Funcs is sorted by
// address at discovery and never reordered, so this is a binary search —
// it sits on the hot profile-matching path.
func (ctx *BinaryContext) FuncContaining(addr uint64) *BinaryFunction {
	i := sort.Search(len(ctx.Funcs), func(i int) bool {
		return ctx.Funcs[i].Addr > addr
	})
	if i == 0 {
		return nil
	}
	if f := ctx.Funcs[i-1]; f.contains(addr) {
		return f
	}
	return nil
}

// CountStat bumps a statistic through the metrics registry. Safe for
// concurrent use; inside a FunctionPass prefer the FuncCtx shard, which
// is contention-free.
func (ctx *BinaryContext) CountStat(s Stat, delta int64) {
	ctx.Metrics.Add(int(s), delta)
}

// SimpleFuncs returns the rewritable functions.
func (ctx *BinaryContext) SimpleFuncs() []*BinaryFunction {
	var out []*BinaryFunction
	for _, f := range ctx.Funcs {
		if f.Simple && f.FoldedInto == nil {
			out = append(out, f)
		}
	}
	return out
}

// Pass is one transformation or analysis over the binary context.
type Pass interface {
	Name() string
	Run(ctx *BinaryContext) error
}
