package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"gobolt/internal/cfi"
	"gobolt/internal/dbg"
	"gobolt/internal/elfx"
	"gobolt/internal/isa"
	"gobolt/internal/par"
	"gobolt/internal/scratch"
)

// NewContext discovers functions, disassembles them, and builds CFGs —
// the front half of the Figure 3 pipeline. It runs in two stages: a
// serial discovery phase that decodes the line table, the frames and
// LSDA, and the symbols (functions, aliases, PLT stubs) one after
// another, finalizing the function list and every shared map; then a
// parallel per-function phase (disassembly, CFG construction, CFI/LSDA
// attachment) fanned out over opts.Jobs workers — safe because after
// discovery a worker only writes state local to the function it was
// handed, plus a private stats shard merged at the join. Discovery is
// serial because it is mostly the symbol scan: the two other decodes are
// too short to pay for overlapping them with it. The resulting context is
// identical for every worker count. Cancelling cx aborts the parallel
// phase promptly and returns cx.Err(). opts is taken as given: start
// from DefaultOptions().
func NewContext(cx context.Context, f *elfx.File, opts Options) (*BinaryContext, error) {
	if cx == nil {
		cx = context.Background()
	}
	if err := cx.Err(); err != nil {
		return nil, err
	}
	ctx := &BinaryContext{
		File:     f,
		Opts:     opts,
		ByName:   map[string]*BinaryFunction{},
		PLTStubs: map[uint64]uint64{},
		Stats:    map[string]int64{},
	}
	ph := ctx.begin("load", "load:discover")

	// Debug info.
	if ls := f.Section(dbg.SectionName); ls != nil {
		if t, err := dbg.Decode(ls.Data); err == nil {
			ctx.LineTable = t
		}
	}
	// Frame info.
	if fs := f.Section(cfi.FrameSectionName); fs != nil {
		fdes, err := cfi.DecodeFrames(fs.Data)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		ctx.fdes = fdes
	}
	if ls := f.Section(cfi.LSDASectionName); ls != nil {
		ctx.lsdaData = ls.Data
		ctx.lsdaBase = ls.Addr
	}
	// Function discovery: symbol-table driven (paper §3.3). PLT stubs are
	// recognized separately; alias symbols (ICF'd at link time) attach to
	// the canonical function at the same address. The functions are
	// values of one slab sized by the function-symbol count, which
	// bounds their number, so no append moves them.
	byAddr := map[uint64]*BinaryFunction{}
	syms := f.FuncSymbols()
	fnSlab := make([]BinaryFunction, 0, len(syms))
	ctx.Funcs = make([]*BinaryFunction, 0, len(syms))
	for _, sym := range syms {
		sec := f.SectionFor(sym.Value)
		if sec == nil || sym.Size == 0 {
			continue
		}
		if sec.Name == ".plt" {
			ctx.discoverPLTStub(sym)
			continue
		}
		if existing := byAddr[sym.Value]; existing != nil {
			existing.Aliases = append(existing.Aliases, sym.Name)
			ctx.ByName[sym.Name] = existing
			continue
		}
		bytes, err := f.ReadAt(sym.Value, int(sym.Size))
		if err != nil {
			continue
		}
		fnSlab = append(fnSlab, BinaryFunction{
			Name:    sym.Name,
			Addr:    sym.Value,
			Size:    sym.Size,
			Section: sec.Name,
			// Bytes aliases the mapped section data. Safe: disassembly
			// only reads it, and rewriting emits into fresh output
			// buffers — nothing writes a function body in place.
			Bytes:  bytes,
			Simple: true,
		})
		fn := &fnSlab[len(fnSlab)-1]
		ctx.Funcs = append(ctx.Funcs, fn)
		ctx.ByName[sym.Name] = fn
		byAddr[sym.Value] = fn
	}
	sort.Slice(ctx.Funcs, func(i, j int) bool { return ctx.Funcs[i].Addr < ctx.Funcs[j].Addr })
	for i, fn := range ctx.Funcs {
		fn.ordIdx = i
	}
	ctx.indexFuncs()
	if len(ctx.Funcs) > 0 {
		ctx.codeBase = ctx.Funcs[0].Addr
	}
	ctx.indexObjects()
	// Relocations (--emit-relocs) enable relocations mode.
	ctx.HasRelocs = len(f.Relas) > 0
	ph.end(0, 1)

	// Parallel per-function phase. The shared maps (ByName, PLTStubs) and
	// the address-sorted function list are frozen above; from here every
	// worker touches only the function it was handed. A function weighs
	// its input bytes in the workers' slab pacing: rest[i] is the weight
	// of Funcs[i:].
	ph = ctx.begin("load", "load:disasm+cfg")
	jobs := par.Jobs(opts.Jobs, len(ctx.Funcs))
	rest := make([]int64, len(ctx.Funcs)+1)
	for i := len(ctx.Funcs) - 1; i >= 0; i-- {
		rest[i] = rest[i+1] + int64(ctx.Funcs[i].Size)
	}
	scratch := make([]loaderScratch, jobs)
	for w := range scratch {
		scratch[w].pace.jobs = jobs
	}
	if _, err := par.ForTraced(cx, ctx.Opts.Trace, "load:disasm+cfg",
		func(i int) string { return ctx.Funcs[i].Name },
		len(ctx.Funcs), jobs, func(w, i int) error {
			sc := &scratch[w]
			sc.pace.next(rest, i)
			ctx.loadFunction(ctx.Funcs[i], sc)
			return nil
		}); err != nil {
		return nil, err
	}
	for w := range scratch {
		ctx.mergeStats(&scratch[w].stats)
	}
	ph.end(len(ctx.Funcs), jobs)
	return ctx, nil
}

// loaderScratch is one worker's reusable state for the parallel loader.
// Everything in it but the slabs is truncated or zeroed — not
// reallocated — between functions, and every table is addressed by
// position (instruction order, BasicBlock.Index), so steady-state loading
// only allocates the function's instruction slab and, when one fills, a
// worker slab. A scratch is owned by exactly one worker.
type loaderScratch struct {
	raw     []rawInst   // the function's instructions, in address order
	jts     []pendingJT // its jump tables, in instruction order
	targets []uint64    // their raw target addresses, back to back
	edges   []Edge      // one block's successor edges, in buildCFG's order
	// seen[b.Index] == stamp marks block b as already listed among one
	// jump table's targets; bumping stamp starts the next table without
	// a clear.
	seen   []int32
	stamp  int32
	states []cfi.State  // attachCFI's interned states
	lps    []landingPad // attachLSDA's interned landing pads
	lsda   cfi.LSDA     // the function's decoded LSDA
	stats  statShard

	// The worker's slabs: the blocks from blockSlab, the block list and
	// every jump table's Targets from listSlab, the jump tables from
	// jtSlab, Succs from edgeSlab, and the CFI state and landing-pad
	// tables from the last two.
	pace      pace
	blockSlab slab[BasicBlock]
	listSlab  slab[*BasicBlock]
	jtSlab    slab[JumpTable]
	edgeSlab  slab[Edge]
	stateSlab slab[cfi.State]
	padSlab   slab[landingPad]
}

// loadFunction is the per-function half of the loader: linear
// disassembly, CFG construction, and CFI/LSDA attachment. Failures mark
// the function non-simple rather than fatal: precise disassembly is
// undecidable in general (§3.3). It writes only fn-local state and the
// caller's private scratch.
func (ctx *BinaryContext) loadFunction(fn *BinaryFunction, sc *loaderScratch) {
	fn.lines, fn.codeBase = ctx.LineTable, ctx.codeBase
	fde, _ := cfi.FindFDE(ctx.fdes, fn.Addr)
	var lsda *cfi.LSDA
	err := ctx.disassemble(fn, sc)
	if err == nil {
		lsda, err = ctx.landingPads(fn, fde, sc)
	}
	if err != nil {
		fn.Simple = false
		fn.Reason = err.Error()
	} else {
		ctx.formBlocks(fn, sc)
		buildCFG(fn, sc)
		if fde != nil {
			attachCFI(fn, fde, sc)
		}
		if lsda != nil {
			attachLSDA(fn, lsda, sc)
			fn.lps = sc.padSlab.clone(sc.lps, &sc.pace)
		}
	}
	if fn.Simple {
		sc.stats[StatLoadSimple]++
		sc.stats[StatLoadBlocks] += int64(len(fn.Blocks))
	} else {
		sc.stats[StatLoadNonSimple]++
	}
}

// discoverPLTStub decodes `jmp *GOT(%rip)` and resolves the target
// through the GOT contents.
func (ctx *BinaryContext) discoverPLTStub(sym elfx.Symbol) {
	data, err := ctx.File.ReadAt(sym.Value, 6)
	if err != nil {
		return
	}
	var inst isa.Inst
	_, err = isa.Decode(&inst, data, sym.Value)
	if err != nil || inst.Op != isa.JMPm || !inst.M.IsRIP() {
		return
	}
	raw, err := ctx.File.ReadAt(inst.TargetAddr(), 8)
	if err != nil {
		return
	}
	var target uint64
	for i := 7; i >= 0; i-- {
		target = target<<8 | uint64(raw[i])
	}
	ctx.PLTStubs[sym.Value] = target
}

// rawInst is a decoded instruction before block formation; leader marks
// the ones that start a basic block.
type rawInst struct {
	inst   isa.Inst
	leader bool
	addr   uint64
}

// instIndex returns the position in raw (address order) of the
// instruction starting at addr, or -1 when no instruction starts there —
// the loader's one answer to "what is at this address".
func instIndex(raw []rawInst, addr uint64) int {
	lo, hi := 0, len(raw)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if raw[mid].addr < addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(raw) && raw[lo].addr == addr {
		return lo
	}
	return -1
}

// disassemble linearly decodes the function into the worker's scratch and
// performs target analysis: internal branch targets become leaders;
// indirect jumps must match a jump-table pattern, and every direct branch
// must land on an instruction of this function or on another function's
// entry, or the function is non-simple.
func (ctx *BinaryContext) disassemble(fn *BinaryFunction, sc *loaderScratch) error {
	if fn.Size > maxOriginSpan || fn.Addr-ctx.codeBase > maxOriginSpan-fn.Size {
		return fmt.Errorf("%d bytes at +%#x exceed the %d an instruction offset can address",
			fn.Size, fn.Addr-ctx.codeBase, uint64(maxOriginSpan))
	}
	raw := sc.raw[:0]
	off := uint64(0)
	for off < fn.Size {
		raw = append(raw, rawInst{addr: fn.Addr + off})
		r := &raw[len(raw)-1]
		n, err := isa.Decode(&r.inst, fn.Bytes[off:], r.addr)
		if err != nil {
			sc.raw = raw[:len(raw)-1]
			return fmt.Errorf("undecodable at +%#x: %w", off, err)
		}
		off += uint64(n)
	}
	sc.raw = raw
	sc.jts, sc.targets = sc.jts[:0], sc.targets[:0]

	raw[0].leader = true
	for i := range raw {
		in := &raw[i].inst
		if !in.IsTerminator() {
			continue
		}
		switch {
		case in.IsDirectBranch():
			if fn.contains(in.TargetAddr()) {
				k := instIndex(raw, in.TargetAddr())
				if k < 0 {
					return fmt.Errorf("branch at +%#x targets +%#x, not an instruction start",
						raw[i].addr-fn.Addr, in.TargetAddr()-fn.Addr)
				}
				raw[k].leader = true
			} else if ctx.FuncByAddr(in.TargetAddr()) == nil {
				return fmt.Errorf("branch at +%#x targets %#x, not a function entry",
					raw[i].addr-fn.Addr, in.TargetAddr())
			}
		case in.IsIndirectBranch():
			if err := ctx.matchJumpTable(sc, i); err != nil {
				return fmt.Errorf("indirect tail call or unbounded jump table at +%#x: %w",
					raw[i].addr-fn.Addr, err)
			}
			for _, taddr := range sc.jts[len(sc.jts)-1].targets {
				if !fn.contains(taddr) {
					return fmt.Errorf("jump table entry %#x escapes function", taddr)
				}
				k := instIndex(raw, taddr)
				if k < 0 {
					return fmt.Errorf("jump table entry %#x is not an instruction start", taddr)
				}
				raw[k].leader = true
			}
		}
		// Whatever follows a control transfer starts a block.
		if i+1 < len(raw) {
			raw[i+1].leader = true
		}
	}
	if len(sc.jts) > maxInstTable {
		return fmt.Errorf("%d jump tables exceed the %d an instruction can index", len(sc.jts), maxInstTable)
	}
	return nil
}

// landingPads decodes the function's LSDA, when its FDE names one, into
// the worker's scratch and makes every landing pad a leader. A pad that
// is not an instruction start is left for attachLSDA to report, if a call
// is actually covered by it.
func (ctx *BinaryContext) landingPads(fn *BinaryFunction, fde *cfi.FDE, sc *loaderScratch) (*cfi.LSDA, error) {
	if fde == nil || fde.LSDA == 0 {
		return nil, nil
	}
	lsda, raw := &sc.lsda, sc.raw
	if err := lsda.Decode(ctx.lsdaData, uint32(fde.LSDA-ctx.lsdaBase)); err != nil {
		return nil, fmt.Errorf("bad LSDA: %w", err)
	}
	for _, cs := range lsda.CallSites {
		if cs.LandingPad == 0 {
			continue
		}
		if !fn.contains(cs.LandingPad) {
			return nil, fmt.Errorf("landing pad %#x outside function", cs.LandingPad)
		}
		if k := instIndex(raw, cs.LandingPad); k >= 0 {
			raw[k].leader = true
		}
	}
	fn.HasLSDA = true
	return lsda, nil
}

// formBlocks cuts the decoded instructions into basic blocks at the
// leaders, dropping NOPs per the paper's I-cache policy (§4). Block and
// instruction counts are known from the leader flags, so the blocks, the
// block list and the jump tables are windows of the worker's slabs, the
// instructions one exact array per function, and the labels past the
// shared table one string per function, instead of an incremental
// append per block and per instruction.
func (ctx *BinaryContext) formBlocks(fn *BinaryFunction, sc *loaderScratch) {
	raw := sc.raw
	nBlocks, nInsts := 0, 0
	for i := range raw {
		if raw[i].leader {
			nBlocks++
		}
		if raw[i].inst.Op != isa.NOP {
			nInsts++
		}
	}
	blocks := sc.blockSlab.take(nBlocks, &sc.pace)
	instSlab := make([]Inst, 0, nInsts)
	fn.Blocks = sc.listSlab.take(nBlocks, &sc.pace)
	fn.JTs = sc.jtSlab.take(len(sc.jts), &sc.pace)
	for k := range sc.jts {
		fn.JTs[k] = sc.jts[k].table
	}
	var cur *BasicBlock
	nb, jt := 0, 0 // blocks and jump tables reached so far
	curStart := 0
	far := farLabels(nBlocks)
	// seal fixes the finished block's window into the instruction slab.
	// The three-index slice caps it at its own length: a pass appending
	// to b.Insts reallocates onto a fresh array instead of clobbering
	// the next block's slab storage.
	seal := func() {
		if cur != nil {
			cur.Insts = instSlab[curStart:len(instSlab):len(instSlab)]
		}
	}
	for i := range raw {
		r := &raw[i]
		if r.leader {
			seal()
			cur = &blocks[nb]
			cur.Index = nb
			cur.Addr = r.addr
			cur.Label = blockLabel(nb, &far)
			fn.Blocks[nb] = cur
			nb++
			curStart = len(instSlab)
		}
		if r.inst.Op == isa.NOP {
			continue // stripped
		}
		// Filled in place: the slab came zeroed, and an Inst is too wide
		// to build on the stack and copy in.
		instSlab = instSlab[:len(instSlab)+1]
		ci := &instSlab[len(instSlab)-1]
		ci.I, ci.Off = r.inst, uint32(r.addr-ctx.codeBase)+1
		if jt < len(sc.jts) && sc.jts[jt].at == i {
			jt++
			ci.tab = uint16(jt)
		}
	}
	seal()
}

// maxInstTable bounds the per-function tables Inst.JT and Inst.LP index
// (one-based uint16); a function past it is left untouched as non-simple.
const maxInstTable = 1<<16 - 1

// maxOriginSpan bounds how far a function's input bytes may reach past
// the code base so that Inst.Off, one plus a 31-bit offset beside the
// copied bit, reaches every instruction; a function reaching further is
// left untouched as non-simple.
const maxOriginSpan = offCopied - 1

// pendingJT is a recovered jump table until blocks exist: the raw index
// of its indirect jump and its entries' addresses, a window of
// loaderScratch.targets (which stays readable if a later table's append
// moves the slab: the array it was cut from keeps its contents).
type pendingJT struct {
	table   JumpTable
	at      int
	targets []uint64
}

// matchJumpTable recognizes the two lowering patterns for switches:
//
//	absolute: lea B,[rip+T] ... jmp [B + idx*8]
//	PIC:      lea B,[rip+T] ... movslq R,[B+idx*4]; add R,B; jmp R
//
// Table extent comes from the rodata symbol covering T; the caller
// validates the entries against the function. Anything else is an
// indirect tail call -> non-simple (paper §6.4). A match is appended to
// sc.jts.
func (ctx *BinaryContext) matchJumpTable(sc *loaderScratch, i int) error {
	raw := sc.raw
	in := &raw[i].inst

	findLea := func(reg isa.Reg, from int) (uint64, bool) {
		for k := from; k >= 0 && k > from-8; k-- {
			r := &raw[k].inst
			if r.Op == isa.LEA && r.R1 == reg && r.M.IsRIP() {
				return r.TargetAddr(), true
			}
			if r.Defs().Has(reg) {
				return 0, false
			}
		}
		return 0, false
	}

	var tableAddr uint64
	var pic bool
	switch in.Op {
	case isa.JMPm:
		if in.M.Base == isa.NoReg || in.M.Scale != 8 {
			return fmt.Errorf("unrecognized memory jump form")
		}
		t, ok := findLea(in.M.Base, i-1)
		if !ok {
			return fmt.Errorf("no table base lea found")
		}
		tableAddr = t
	case isa.JMPr:
		// Expect: movslq R,[B+idx*4]; add R,B; jmp R
		if i < 2 {
			return fmt.Errorf("indirect jump with no context")
		}
		add := &raw[i-1].inst
		mov := &raw[i-2].inst
		if add.Op != isa.ADDrr || add.R1 != in.R1 ||
			mov.Op != isa.MOVSXDrm || mov.R1 != in.R1 ||
			mov.M.Base != add.R2 || mov.M.Scale != 4 {
			return fmt.Errorf("not a PIC jump-table pattern")
		}
		t, ok := findLea(add.R2, i-3)
		if !ok {
			return fmt.Errorf("no PIC table base lea found")
		}
		tableAddr = t
		pic = true
	default:
		return fmt.Errorf("unhandled indirect branch")
	}

	// Bound the table via its data symbol.
	var symName string
	var symSize uint64
	if s := ctx.objectAt(tableAddr); s != nil {
		symName, symSize = s.Name, s.Size
	}
	if symSize == 0 {
		return fmt.Errorf("no symbol bounds table at %#x", tableAddr)
	}
	entrySize := 8
	if pic {
		entrySize = 4
	}
	n := int(symSize) / entrySize
	if n == 0 || n > 4096 {
		return fmt.Errorf("implausible table size %d", n)
	}
	data, err := ctx.File.ReadAt(tableAddr, n*entrySize)
	if err != nil {
		return err
	}
	lo := len(sc.targets)
	for e := 0; e < n; e++ {
		var target uint64
		if pic {
			var v uint32
			for k := 3; k >= 0; k-- {
				v = v<<8 | uint32(data[e*4+k])
			}
			target = tableAddr + uint64(int64(int32(v)))
		} else {
			for k := 7; k >= 0; k-- {
				target = target<<8 | uint64(data[e*8+k])
			}
		}
		sc.targets = append(sc.targets, target)
	}
	sc.jts = append(sc.jts, pendingJT{
		table: JumpTable{Addr: tableAddr, EntrySize: entrySize, PIC: pic, SymName: symName},
		at:    i, targets: sc.targets[lo:],
	})
	return nil
}

// indexObjects lists the data symbols by address for matchJumpTable,
// which bounds a table by the STT_OBJECT symbol at its address. The sort
// is stable, so at a shared address the first symbol in table order
// leads, as a walk of the symbol table would find it.
func (ctx *BinaryContext) indexObjects() {
	n := 0
	for i := range ctx.File.Symbols {
		if ctx.File.Symbols[i].Type == elfx.STTObject {
			n++
		}
	}
	ctx.objects = make([]elfx.Symbol, 0, n)
	for _, s := range ctx.File.Symbols {
		if s.Type == elfx.STTObject {
			ctx.objects = append(ctx.objects, s)
		}
	}
	slices.SortStableFunc(ctx.objects, func(a, b elfx.Symbol) int { return cmp.Compare(a.Value, b.Value) })
}

// objectAt returns the first data symbol at addr in symbol-table order,
// nil when there is none, by binary search of ctx.objects.
func (ctx *BinaryContext) objectAt(addr uint64) *elfx.Symbol {
	k, ok := slices.BinarySearchFunc(ctx.objects, addr, func(s elfx.Symbol, addr uint64) int {
		return cmp.Compare(s.Value, addr)
	})
	if !ok {
		return nil
	}
	return &ctx.objects[k]
}

// buildCFG gives every block its Succs, in order, as a window of the
// worker's edge slab, and wires jump-table targets. A block's edges are
// collected in scratch and carved once they are all known.
func buildCFG(fn *BinaryFunction, sc *loaderScratch) {
	if len(fn.Blocks) == 0 {
		fn.Simple = false
		fn.Reason = "empty function"
		return
	}
	fn.Blocks[0].IsEntry = true
	sc.seen = scratch.Zeroed(sc.seen, len(fn.Blocks))
	sc.stamp = 0
	// A conditional branch out of the function (a conditional tail call
	// as compilers emit it, or a BOLTed hot fragment's branch into its
	// cold fragment) has no block successor for its taken side; it
	// simply contributes no edge.
	edges := sc.edges[:0]
	addEdge := func(to *BasicBlock) {
		if to != nil {
			edges = append(edges, Edge{To: to})
		}
	}
	for bi, b := range fn.Blocks {
		var next *BasicBlock
		if bi+1 < len(fn.Blocks) {
			next = fn.Blocks[bi+1]
		}
		edges = edges[:0]
		last := b.LastInst()
		switch {
		case last == nil:
			addEdge(next)
		case last.I.Op == isa.JMP:
			addEdge(fn.blockStarting(last.I.TargetAddr())) // nil: external tail call
		case last.I.Op == isa.JCC:
			addEdge(fn.blockStarting(last.I.TargetAddr())) // Succs[0] = taken
			addEdge(next)                                  // fall-through (Succs[1], or [0] for a cond tail call)
		case last.JT() != 0:
			// One edge per unique target; the table keeps one slot per
			// entry (duplicates allowed). disassemble made every entry a
			// leader, so each resolves to a block.
			sc.stamp++
			jt := fn.JumpTable(last)
			raw := sc.jts[last.JT()-1].targets
			jt.Targets = sc.listSlab.take(len(raw), &sc.pace)
			for k, taddr := range raw {
				to := fn.blockStarting(taddr)
				if sc.seen[to.Index] != sc.stamp {
					sc.seen[to.Index] = sc.stamp
					addEdge(to)
				}
				jt.Targets[k] = to
			}
		case last.I.IsReturn() || last.I.Op == isa.HLT || last.I.Op == isa.UD2:
			// no successors
		case last.I.IsIndirectBranch():
			// unreachable: would have been non-simple
		default:
			addEdge(next)
		}
		b.Succs = sc.edgeSlab.clone(edges, &sc.pace)
	}
	sc.edges = edges
}

// attachCFI replays the FDE over the original instruction order and
// interns per-instruction unwind states, in the worker's scratch, into a
// table it then copies into the function once. Save and restore rules
// naming a register the state cannot track are skipped and counted. The
// replay interns at most one state more than the FDE has rules, so a
// function with MaxCFIStates rules or more is left non-simple: its
// states might not fit Inst.CFIIdx.
func attachCFI(fn *BinaryFunction, fde *cfi.FDE, sc *loaderScratch) {
	if len(fde.Insts) >= MaxCFIStates {
		fn.Simple = false
		fn.Reason = fmt.Sprintf("%d CFI rules may give more unwind states than the %d an instruction can index",
			len(fde.Insts), MaxCFIStates)
		return
	}
	st := cfi.InitialState()
	var stack []cfi.State
	k := 0
	// apply advances the replay to offset upto and reports whether it
	// consumed a CFI instruction.
	apply := func(upto uint32) bool {
		k0 := k
		for k < len(fde.Insts) && fde.Insts[k].PC <= upto {
			in := &fde.Insts[k].Inst
			switch in.Kind {
			case cfi.OpDefCfa:
				st.CfaReg, st.CfaOff = in.Reg, in.Off
			case cfi.OpDefCfaRegister:
				st.CfaReg = in.Reg
			case cfi.OpDefCfaOffset:
				st.CfaOff = in.Off
			case cfi.OpOffset:
				st.Save(in.Reg, in.Off)
			case cfi.OpRestore:
				st.Restore(in.Reg)
			case cfi.OpRememberState:
				stack = append(stack, st)
			case cfi.OpRestoreState:
				if len(stack) > 0 {
					st = stack[len(stack)-1]
					stack = stack[:len(stack)-1]
				}
			}
			if in.Reg >= cfi.NumRegs && (in.Kind == cfi.OpOffset || in.Kind == cfi.OpRestore) {
				sc.stats[StatLoadCFIBadReg]++ // Save and Restore skipped it
			}
			k++
		}
		return k > k0
	}
	// The state is interned once per change, not per instruction: idx
	// stays valid until apply consumes another CFI instruction.
	var idx uint16
	sc.states = sc.states[:0]
	at := func(off uint32) uint16 {
		if apply(off) || idx == 0 {
			sc.states, idx = internState(sc.states, st)
		}
		return idx
	}
	for _, b := range fn.Blocks {
		if len(b.Insts) == 0 {
			// Empty block (all NOPs): state at its address.
			b.CFIIn = at(uint32(b.Addr - fn.Addr))
			continue
		}
		for i := range b.Insts {
			b.Insts[i].CFIIdx = at(fn.instOff(&b.Insts[i]))
		}
		b.CFIIn = b.Insts[0].CFIIdx
	}
	fn.cfiStates = sc.stateSlab.clone(sc.states, &sc.pace)
}

// internLandingPad returns the one-based index of (lpb, action) in the
// function's landing-pad table under construction in sc.lps, adding it if
// new; 0 when the table is full. Consecutive calls mostly share a pad and
// a function has few, so a backwards scan beats a map (as in
// internState).
func (sc *loaderScratch) internLandingPad(lpb *BasicBlock, action int32) uint16 {
	for i := len(sc.lps) - 1; i >= 0; i-- {
		if sc.lps[i].block == lpb && sc.lps[i].action == action {
			return uint16(i + 1)
		}
	}
	if len(sc.lps) == maxInstTable {
		return 0
	}
	sc.lps = append(sc.lps, landingPad{block: lpb, action: action})
	return uint16(len(sc.lps))
}

// attachLSDA connects calls to their landing pads (Inst.LP) and marks LP
// blocks, collecting the landing-pad table in the worker's scratch.
func attachLSDA(fn *BinaryFunction, lsda *cfi.LSDA, sc *loaderScratch) {
	sc.lps = sc.lps[:0]
	for _, b := range fn.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if !in.IsCall() {
				continue
			}
			if lp, action, ok := lsda.Lookup(fn.instOff(in)); ok {
				lpb := fn.blockStarting(lp)
				if lpb == nil {
					fn.Simple = false
					fn.Reason = "landing pad not at block boundary"
					return
				}
				if in.tab = sc.internLandingPad(lpb, action); in.tab == 0 {
					fn.Simple = false
					fn.Reason = "too many landing pads"
					return
				}
				lpb.IsLP = true
			}
		}
	}
}
