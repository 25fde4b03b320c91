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
	"math/bits"
	"slices"
	"sort"
	"strconv"

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
// -icf=1, with the paper's -split-all-cold -split-eh always in effect. The
// zero value turns every pass off: start from DefaultOptions() and change
// the fields you mean to.
type Options struct {
	ReorderBlocks    layout.Algorithm
	ReorderFunctions hfsort.Algorithm
	// SplitFunctions moves each non-entry block whose count is at most
	// 1/64 of the function's hottest, landing pads included, to the cold
	// fragment.
	SplitFunctions bool
	ICF            bool
	ICP            bool
	InlineSmall    bool
	PLT            bool
	Peepholes      bool
	StripRepRet    bool
	FrameOpts      bool
	ShrinkWrapping bool
	UCE            bool

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

// DefaultOptions reproduces the paper's evaluation configuration.
func DefaultOptions() Options {
	return Options{
		ReorderBlocks:       layout.AlgoCache,
		ReorderFunctions:    hfsort.AlgoPlus,
		SplitFunctions:      true,
		ICF:                 true,
		ICP:                 true,
		InlineSmall:         true,
		PLT:                 true,
		Peepholes:           true,
		StripRepRet:         true,
		FrameOpts:           true,
		ShrinkWrapping:      true,
		UCE:                 true,
		UpdateDebugSections: true,
		EnableBAT:           true,
		StaleMatching:       true,
	}
}

// Inst is one instruction plus gobolt's annotations (the MCInst
// annotation mechanism from paper §3.3). It is a pointer-free value of 24
// bytes (TestInstLayout): every phase streams the instruction slabs and
// the collector never scans them, so the rare facts — jump table, landing
// pad, CFI state — are small indices into tables owned by the function, 0
// meaning none, and what the input already records is not stored twice:
// the encoded length is I.Size, a RIP-relative operand's absolute address
// and a call's destination are I's word (see MemAddr and
// BinaryContext.TargetSym), and the source line is looked up from the
// origin (see BinaryFunction.SourceLine).
type Inst struct {
	I isa.Inst
	// Off is one plus the instruction's origin — the input address its
	// bytes came from — as an offset from the context's code base; 0 for
	// a synthesized instruction. The offset survives a copy into another
	// function, which sets offCopied (MarkCopied): a copy keeps its source
	// line but no longer stands for the original (see InstAddr).
	Off uint32

	// CFIIdx is one plus the index of the unwind state in effect AT this
	// instruction in the function's interned CFI state table (StateAt);
	// 0 = unknown/na.
	CFIIdx uint16

	// tab is one plus an index into one of the owning function's tables,
	// 0 for none: on an indirect jump the jump table driving it (JT), on
	// a call the landing pad covering it (LP). No instruction has both, so
	// the two share the slot and are read only through JT and LP, which
	// check the opcode. An Inst carrying either must not be copied into
	// another function. On a CMPri, a non-zero tab marks the immediate as
	// a function's entry address (ICP's `cmp $target, %reg`, SetImmFunc).
	tab uint16
}

// JT returns one plus the index of the jump table driving the indirect
// jump in (BinaryFunction.JumpTable); 0 when in is not an indirect jump
// or has no table.
func (in *Inst) JT() uint16 {
	if in.I.IsIndirectBranch() {
		return in.tab
	}
	return 0
}

// LP returns one plus the index of the landing pad covering the call in
// (BinaryFunction.LandingPad); 0 when in is not a call or an exception
// unwinds straight through it.
func (in *Inst) LP() uint16 {
	if in.I.IsCall() {
		return in.tab
	}
	return 0
}

// SetImmFunc makes the CMPri in compare against f's entry address, which
// emission patches with f's final address.
func (in *Inst) SetImmFunc(f *BinaryFunction) {
	in.I.SetImm(int64(f.Addr))
	in.tab = 1
}

// offCopied marks an Inst.Off whose instruction is a copy.
const offCopied = 1 << 31

// MarkCopied records that in is a copy of the instruction at its origin,
// spliced or duplicated by a pass: it keeps its source line, reads
// InstAddr 0 and anchors no BAT entry.
func (in *Inst) MarkCopied() {
	if in.Off != 0 {
		in.Off |= offCopied
	}
}

// MemAddr returns the absolute address of the instruction's RIP-relative
// memory operand, 0 when it has none.
func (in *Inst) MemAddr() uint64 {
	if in.I.M.IsRIP() && in.I.HasMem() {
		return in.I.TargetAddr()
	}
	return 0
}

// FuncRef names a function of the context: its ordinal in
// BinaryContext.Funcs plus one, so the zero value is "no function".
type FuncRef int32

// NoFunc is the FuncRef of an instruction with no symbolic target.
const NoFunc FuncRef = 0

// CallEdge is one caller -> callee arc of the dynamic call graph.
type CallEdge struct {
	Caller, Callee FuncRef
	Count          uint64
}

// CallTarget counts the calls one indirect call site made to one callee.
type CallTarget struct {
	Site   uint64
	Callee FuncRef
	Count  uint64
}

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
	return sourceAt(f.lines, f.lineEntry(in))
}

// lineEntry returns one plus the index of the line-table entry covering
// in's origin, 0 when there is none.
func (f *BinaryFunction) lineEntry(in *Inst) int32 {
	a := f.origin(in)
	if a == 0 || f.lines == nil {
		return 0
	}
	k, ok := f.lines.LookupEntry(a)
	if !ok {
		return 0
	}
	return int32(k + 1)
}

// sourceAt resolves a lineEntry value against the context's line table.
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
	Index int    // position in BinaryFunction.Blocks, renumbered by layout
	Addr  uint64 // original start address
	Insts []Inst

	// Succs ordering convention: for a conditional branch, Succs[0] is
	// the taken target and Succs[1] the fall-through; for unconditional
	// or fall-through blocks, Succs[0] is the sole successor; for jump
	// tables, one entry per distinct target. Predecessors and landing
	// pads are not stored: they follow from Succs and from the calls'
	// Inst.LP (BinaryFunction.LandingPad).
	Succs []Edge

	ExecCount uint64
	ID        BlockID
	CFIIn     uint16 // one-based CFI state on entry, as Inst.CFIIdx
	IsLP      bool
	IsCold    bool // assigned to the cold fragment by splitting
}

// BlockID names a block for the life of its function: the position at
// which the loader formed it, which layout never changes. A block ICP
// splits off a loaded block takes its parent's position and an ICP kind
// in the top two bits. ICP runs once and splits only loaded blocks, so
// kinds never nest. The entry block is ID 0.
type BlockID uint32

// The kinds of block ICP makes, or'd into the parent's ID.
const (
	ICPDirect   BlockID = 1 << blockKindShift
	ICPIndirect BlockID = 2 << blockKindShift
	ICPCont     BlockID = 3 << blockKindShift

	blockKindShift = 30
)

var blockKindSuffix = [...]string{"", ".icp_d", ".icp_i", ".icp_c"}

// String renders the block's name as the CFG printer shows it: .LBB<n>
// for the n-th loaded block, with an ICP kind's suffix.
func (id BlockID) String() string {
	return ".LBB" + strconv.Itoa(int(id&(1<<blockKindShift-1))) + blockKindSuffix[id>>blockKindShift]
}

// IsEntry reports whether b is the function's entry block.
func (b *BasicBlock) IsEntry() bool { return b.ID == 0 }

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
	Addr    uint64
	Targets []*BasicBlock
	PIC     bool // 4-byte entries relative to Addr; else 8-byte addresses
}

// BinaryFunction is one discovered function.
type BinaryFunction struct {
	Name    string
	Aliases []string
	Addr    uint64
	Size    uint64
	Bytes   []byte

	Simple bool
	Reason string // why non-simple

	Blocks    []*BasicBlock // current layout order
	cfiStates []cfi.State
	JTs       []JumpTable // Inst.JT indexes it (one-based)

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
	// and clears it, so a stale digest never survives into a later ICF run.
	ICFDigest uint64

	// NoInlineSite is set by the (parallel) inline-small scan on a function
	// with no direct call to a single-block function: nothing the splice
	// pass could act on, whatever earlier splices make of the callees. The
	// sequential splice pass skips a marked function and clears the mark;
	// an unscanned function is simply visited.
	NoInlineSite bool

	// ordIdx is this function's index in BinaryContext.Funcs (assigned
	// once after discovery sorts the list). Emission packs it into
	// numeric relocation symbols and the rewriter uses it to index
	// per-function side tables without map lookups.
	ordIdx int

	// lines is the context's line table, which SourceLine reads, and
	// codeBase the context's, which Inst.Off counts from.
	lines    *dbg.Table
	codeBase uint64
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
	k := in.JT()
	if k == 0 {
		return nil
	}
	return &f.JTs[k-1]
}

// IsSplit reports whether splitting moved any of the function's blocks
// to the cold fragment.
func (f *BinaryFunction) IsSplit() bool {
	return slices.ContainsFunc(f.Blocks, func(b *BasicBlock) bool { return b.IsCold })
}

// LandingPad returns the handler block and action covering the call in,
// nil and 0 when an exception unwinds straight through it. In a
// function without landing pads it does not read in.
func (f *BinaryFunction) LandingPad(in *Inst) (*BasicBlock, int32) {
	if len(f.lps) == 0 {
		return nil, 0
	}
	k := in.LP()
	if k == 0 {
		return nil, 0
	}
	lp := f.lps[k-1]
	return lp.block, lp.action
}

// HasLandingPads reports whether any call of f has a landing pad.
func (f *BinaryFunction) HasLandingPads() bool { return len(f.lps) > 0 }

// MaxCFIStates bounds a function's interned CFI state table: Inst.CFIIdx
// is one-based and 16 bits wide. The loader leaves a function whose FDE
// could give it more states non-simple (attachCFI).
const MaxCFIStates = 1<<16 - 1

// InternState interns a CFI state and returns one plus its index. The
// loader interns a function's states in its worker's scratch with
// internState (one call per change of state) and copies the table in
// once; a function has a handful of distinct states, and consecutive
// instructions mostly share one, so a backwards scan beats a map. A pass
// that adds states checks CFIStates first: InternState panics on a state
// the full table cannot take.
func (f *BinaryFunction) InternState(st cfi.State) uint16 {
	var idx uint16
	if f.cfiStates, idx = internState(f.cfiStates, st); idx == 0 {
		panic(fmt.Sprintf("core: %s: CFI state table full", f.Name))
	}
	return idx
}

// internState returns states with st in it and one plus st's index
// there, appending st when it is new; 0 for a new state when states
// already holds MaxCFIStates.
func internState(states []cfi.State, st cfi.State) ([]cfi.State, uint16) {
	for i := len(states) - 1; i >= 0; i-- {
		if states[i] == st {
			return states, uint16(i + 1)
		}
	}
	if len(states) == MaxCFIStates {
		return states, 0
	}
	return append(states, st), uint16(len(states) + 1)
}

// CFIStates returns the number of f's interned CFI states.
func (f *BinaryFunction) CFIStates() int { return len(f.cfiStates) }

// StateAt returns the interned CFI state with one-based index idx, nil
// for 0.
func (f *BinaryFunction) StateAt(idx uint16) *cfi.State {
	if idx == 0 || int(idx) > len(f.cfiStates) {
		return nil
	}
	return &f.cfiStates[idx-1]
}

// InstAddr returns in's original address, 0 for a synthesized or copied
// instruction.
func (f *BinaryFunction) InstAddr(in *Inst) uint64 {
	if in.Off&offCopied != 0 {
		return 0
	}
	return f.origin(in)
}

// origin returns the input address in's bytes came from, copied or not,
// 0 for a synthesized instruction.
func (f *BinaryFunction) origin(in *Inst) uint64 {
	if in.Off == 0 {
		return 0
	}
	return f.codeBase + uint64(in.Off&^offCopied-1)
}

// instOff returns the offset of in's origin from the function's address.
func (f *BinaryFunction) instOff(in *Inst) uint32 { return uint32(f.origin(in) - f.Addr) }

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
	if b == nil || !f.contains(addr) {
		return nil, nil
	}
	off := uint32(addr-f.codeBase) + 1
	i := sort.Search(len(b.Insts), func(i int) bool { return b.Insts[i].Off >= off })
	if i == len(b.Insts) || b.Insts[i].Off != off {
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
	// byAddr finds Funcs by address, for FuncByAddr and FuncContaining.
	byAddr funcIndex

	// HasRelocs is true when the binary was linked with --emit-relocs,
	// enabling relocations mode (function reordering; paper §3.2).
	HasRelocs bool

	// PLTStubs maps stub address -> final target address (via GOT).
	PLTStubs map[uint64]uint64

	LineTable *dbg.Table
	// codeBase is the lowest function address, which Inst.Off counts
	// from.
	codeBase uint64

	fdes     []cfi.FDE
	lsdaData []byte
	lsdaBase uint64
	// objects are the STT_OBJECT symbols in address order (indexObjects).
	objects []elfx.Symbol

	// CallTargets histograms indirect-call targets: one entry per
	// (call-site address, callee), sorted by both. Profile application
	// fills it; ICP reads it.
	CallTargets []CallTarget

	// CallEdges is the weighted dynamic call graph observed in an LBR
	// profile: one entry per (caller, callee), sorted by both.
	// reorder-functions feeds it to HFSort.
	CallEdges []CallEdge

	// ProfileLBR records which §5 profile mode produced the attached data.
	ProfileLBR bool

	// FuncOrder is the new function layout, set by reorder-functions:
	// these functions first, the rest in address order.
	FuncOrder []FuncRef

	// Stats holds every counter the pipeline records, by the names
	// StatDefs declares; a key is present iff its count is non-zero.
	// Serial code writes it through CountStat; pool workers count into
	// private shards that mergeStats folds in at the join. Read it only
	// between phases.
	Stats map[string]int64

	// Timings is the run's one instrumentation record, in execution order
	// (see begin/end); the bolt package's Report.WriteTimings renders it.
	Timings []PassTiming

	// FlowAccBefore/FlowAccAfter are the count-weighted flow-equation
	// consistency of the profiled CFGs before and after the
	// profile:infer stage (1.0 = every block's count equals its
	// out-flow). Set by ApplyProfile.
	FlowAccBefore, FlowAccAfter float64

	// passWorkers are the function-pass workers' views, made by the first
	// function pass that needs them and kept for the session.
	passWorkers []*FuncCtx
}

// funcIndex finds functions by address in one array. entries[i] is
// Funcs[i].Addr (Funcs is sorted by address at discovery and never
// reordered; the addresses are distinct, as an alias symbol joins the
// function already at its address), and bucket[k] is the index of the first entry at or above
// entries[0] + k<<shift, with one bucket past the last entry. The shift
// makes a bucket about as wide as the mean gap between entries, so a
// lookup reads one bucket pair and searches the few entries between them
// instead of all of them: TargetSym asks for every call that emission
// and several passes visit, and FuncContaining sits on the profile and
// patching paths.
type funcIndex struct {
	entries []uint64
	bucket  []uint32
	shift   uint
}

// indexFuncs builds ctx.byAddr over ctx.Funcs.
func (ctx *BinaryContext) indexFuncs() {
	n := len(ctx.Funcs)
	x := funcIndex{entries: make([]uint64, n)}
	for i, fn := range ctx.Funcs {
		x.entries[i] = fn.Addr
	}
	if n > 0 {
		e := x.entries
		span := e[n-1] - e[0]
		x.shift = uint(bits.Len64(span / uint64(n)))
		x.bucket = make([]uint32, span>>x.shift+2)
		i := 0
		for k := range x.bucket {
			for i < n && e[i]-e[0] < uint64(k)<<x.shift {
				i++
			}
			x.bucket[k] = uint32(i)
		}
	}
	ctx.byAddr = x
}

// upper returns the number of entries at or below addr.
func (x *funcIndex) upper(addr uint64) int {
	e := x.entries
	if len(e) == 0 || addr < e[0] {
		return 0
	}
	k := (addr - e[0]) >> x.shift
	if k >= uint64(len(x.bucket)-1) {
		return len(e)
	}
	lo, hi := int(x.bucket[k]), int(x.bucket[k+1])
	i, found := slices.BinarySearch(e[lo:hi], addr)
	if found {
		i++
	}
	return lo + i
}

// FuncByAddr returns the function starting at addr.
func (ctx *BinaryContext) FuncByAddr(addr uint64) *BinaryFunction {
	if i := ctx.byAddr.upper(addr); i > 0 && ctx.byAddr.entries[i-1] == addr {
		return ctx.Funcs[i-1]
	}
	return nil
}

// TargetSym returns the function the instruction in of fn names, NoFunc
// for none: the callee of a direct call, the destination of a direct
// branch out of fn (a tail call; the loader admits no other), or the
// function whose entry address ICP's cmp compares against. The word
// holds that entry address, so the name is looked up, not stored: a call
// into no function's entry (a PLT stub the plt pass has not resolved)
// names none.
func (ctx *BinaryContext) TargetSym(fn *BinaryFunction, in *Inst) FuncRef {
	addr := in.I.TargetAddr()
	switch {
	case in.I.Op == isa.CALL:
	case in.I.IsDirectBranch():
		if fn.contains(addr) {
			return NoFunc
		}
	case in.I.Op == isa.CMPri && in.tab != 0:
	default:
		return NoFunc
	}
	if f := ctx.FuncByAddr(addr); f != nil {
		return f.Ref()
	}
	return NoFunc
}

// FuncContaining returns the function covering addr.
func (ctx *BinaryContext) FuncContaining(addr uint64) *BinaryFunction {
	if i := ctx.byAddr.upper(addr); i > 0 && ctx.Funcs[i-1].contains(addr) {
		return ctx.Funcs[i-1]
	}
	return nil
}

// CountStat adds delta to statistic s in ctx.Stats, dropping the key
// when the count returns to zero. It is for serial code only: inside a
// FunctionPass, FuncCtx.CountStat counts into the worker's shard.
func (ctx *BinaryContext) CountStat(s Stat, delta int64) {
	name := s.String()
	if v := ctx.Stats[name] + delta; v != 0 {
		ctx.Stats[name] = v
	} else {
		delete(ctx.Stats, name)
	}
}

// SimpleFuncs returns the rewritable functions.
func (ctx *BinaryContext) SimpleFuncs() []*BinaryFunction {
	simple := func(f *BinaryFunction) bool { return f.Simple && f.FoldedInto == nil }
	n := 0
	for _, f := range ctx.Funcs {
		if simple(f) {
			n++
		}
	}
	out := make([]*BinaryFunction, 0, n)
	for _, f := range ctx.Funcs {
		if simple(f) {
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
