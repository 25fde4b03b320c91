package core

import (
	"context"
	"fmt"
	"sort"

	"gobolt/internal/cfi"
	"gobolt/internal/dbg"
	"gobolt/internal/elfx"
	"gobolt/internal/intern"
	"gobolt/internal/isa"
	"gobolt/internal/obsv"
	"gobolt/internal/par"
)

// NewContext discovers functions, disassembles them, and builds CFGs —
// the front half of the Figure 3 pipeline. It runs in two stages: a
// serial discovery phase (symbols, relocations, CFI/LSDA, PLT stubs)
// that finalizes the function list and every shared map, then a parallel
// per-function phase (disassembly, CFG construction, CFI/LSDA
// attachment) fanned out over opts.Jobs workers — safe because after
// discovery a worker only writes state local to the function it was
// handed, plus a private stats shard merged at the join. The resulting
// context is identical for every worker count. Cancelling cx aborts the
// parallel phase promptly and returns cx.Err(). The zero Options value is
// upgraded to DefaultOptions (see Options.Normalized).
func NewContext(cx context.Context, f *elfx.File, opts Options) (*BinaryContext, error) {
	if cx == nil {
		cx = context.Background()
	}
	opts = opts.Normalized()
	if err := cx.Err(); err != nil {
		return nil, err
	}
	ctx := &BinaryContext{
		File:        f,
		Opts:        opts,
		ByName:      map[string]*BinaryFunction{},
		PLTStubs:    map[uint64]uint64{},
		CallTargets: map[uint64]map[string]uint64{},
		Metrics:     obsv.NewRegistry(StatDefs()),
	}
	// ctx.Stats aliases the registry's live counter map: the registry is
	// the source of truth, the map is the compatibility view.
	ctx.Stats = ctx.Metrics.Counters()
	ph := ctx.begin("load", "load:discover")

	// Discovery runs as three independent scans overlapped on the worker
	// pool — each writes a disjoint set of context fields (LineTable;
	// fdes+LSDA; Funcs/ByName/PLTStubs), the input file is read-only, and
	// results don't depend on scan interleaving, so the context is
	// identical for any worker count. Only the frame decode can fail,
	// keeping error reporting schedule-independent.
	discoverScans := []func() error{
		func() error {
			// Debug info.
			if ls := f.Section(dbg.SectionName); ls != nil {
				if t, err := dbg.Decode(ls.Data); err == nil {
					ctx.LineTable = t
				}
			}
			return nil
		},
		func() error {
			// Frame info.
			if fs := f.Section(cfi.FrameSectionName); fs != nil {
				fdes, err := cfi.DecodeFrames(fs.Data)
				if err != nil {
					return fmt.Errorf("core: %w", err)
				}
				ctx.fdes = fdes
			}
			if ls := f.Section(cfi.LSDASectionName); ls != nil {
				ctx.lsdaData = ls.Data
				ctx.lsdaBase = ls.Addr
			}
			return nil
		},
		func() error {
			// Function discovery: symbol-table driven (paper §3.3). PLT
			// stubs are recognized separately; alias symbols (ICF'd at
			// link time) attach to the canonical function at the same
			// address.
			byAddr := map[uint64]*BinaryFunction{}
			for _, sym := range f.FuncSymbols() {
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
				fn := &BinaryFunction{
					Name:    sym.Name,
					Addr:    sym.Value,
					Size:    sym.Size,
					Section: sec.Name,
					// Bytes aliases the mapped section data. Safe:
					// disassembly only reads it, and rewriting emits into
					// fresh output buffers — nothing writes a function
					// body in place.
					Bytes:  bytes,
					Simple: true,
				}
				ctx.Funcs = append(ctx.Funcs, fn)
				ctx.ByName[sym.Name] = fn
				byAddr[sym.Value] = fn
			}
			sort.Slice(ctx.Funcs, func(i, j int) bool { return ctx.Funcs[i].Addr < ctx.Funcs[j].Addr })
			for i, fn := range ctx.Funcs {
				fn.ordIdx = i
			}
			return nil
		},
	}
	discoverScanNames := []string{"linetable", "cfi", "symbols"}
	discoverJobs := par.Jobs(opts.Jobs, len(discoverScans))
	if _, err := par.ForTraced(cx, ctx.Opts.Trace, "load:discover",
		func(i int) string { return discoverScanNames[i] },
		len(discoverScans), discoverJobs, func(_, i int) error {
			return discoverScans[i]()
		}); err != nil {
		return nil, err
	}
	// Relocations (--emit-relocs) enable relocations mode.
	ctx.HasRelocs = len(f.Relas) > 0
	ph.end(0, discoverJobs)

	// Parallel per-function phase. The shared maps (ByName, PLTStubs) and
	// the address-sorted function list are frozen above; from here every
	// worker touches only the function it was handed.
	ph = ctx.begin("load", "load:disasm+cfg")
	jobs := par.Jobs(opts.Jobs, len(ctx.Funcs))
	scratch := make([]loaderScratch, jobs)
	if _, err := par.ForTraced(cx, ctx.Opts.Trace, "load:disasm+cfg",
		func(i int) string { return ctx.Funcs[i].Name },
		len(ctx.Funcs), jobs, func(w, i int) error {
			ctx.loadFunction(ctx.Funcs[i], &scratch[w])
			return nil
		}); err != nil {
		return nil, err
	}
	for w := range scratch {
		ctx.Metrics.Merge(scratch[w].stats[:])
	}
	ph.end(len(ctx.Funcs), jobs)
	return ctx, nil
}

// loaderScratch is one worker's reusable state for the parallel loader.
// Everything in it is truncated or zeroed — not reallocated — between
// functions, and every table is addressed by position (instruction order,
// BasicBlock.Index), so steady-state loading only allocates the
// per-function slabs that survive in the context. A scratch is owned by
// exactly one worker.
type loaderScratch struct {
	raw     []rawInst   // the function's instructions, in address order
	jts     []pendingJT // its jump tables, in instruction order
	targets []uint64    // their raw target addresses, back to back
	edges   []edgeRef
	succN   []int32
	predN   []int32
	// seen[b.Index] == stamp marks block b as already listed by the
	// de-duplication under way (one jump table's targets, one block's
	// landing pads); bumping stamp starts the next one without a clear.
	seen  []int32
	stamp int32
	stats statShard
}

// edgeRef is one CFG edge held in scratch while buildCFG counts edge
// storage.
type edgeRef struct{ from, to *BasicBlock }

// loadFunction is the per-function half of the loader: linear
// disassembly, CFG construction, and CFI/LSDA attachment. Failures mark
// the function non-simple rather than fatal: precise disassembly is
// undecidable in general (§3.3). It writes only fn-local state and the
// caller's private scratch.
func (ctx *BinaryContext) loadFunction(fn *BinaryFunction, sc *loaderScratch) {
	fn.lines = ctx.LineTable
	fde, _ := cfi.FindFDE(ctx.fdes, fn.Addr)
	var lsda *cfi.LSDA
	err := ctx.disassemble(fn, sc)
	if err == nil {
		lsda, err = ctx.landingPads(fn, fde, sc.raw)
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
	inst, n, err := isa.Decode(data, sym.Value)
	if err != nil || inst.Op != isa.JMPm || !inst.M.RIP {
		return
	}
	gotAddr := sym.Value + uint64(n) + uint64(int64(inst.M.Disp))
	raw, err := ctx.File.ReadAt(gotAddr, 8)
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
	addr   uint64
	size   uint8
	leader bool
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
	raw := sc.raw[:0]
	off := uint64(0)
	for off < fn.Size {
		inst, n, err := isa.Decode(fn.Bytes[off:], fn.Addr+off)
		if err != nil {
			sc.raw = raw
			return fmt.Errorf("undecodable at +%#x: %w", off, err)
		}
		raw = append(raw, rawInst{inst: inst, addr: fn.Addr + off, size: uint8(n)})
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
			if fn.contains(in.TargetAddr) {
				k := instIndex(raw, in.TargetAddr)
				if k < 0 {
					return fmt.Errorf("branch at +%#x targets +%#x, not an instruction start",
						raw[i].addr-fn.Addr, in.TargetAddr-fn.Addr)
				}
				raw[k].leader = true
			} else if ctx.FuncByAddr(in.TargetAddr) == nil {
				return fmt.Errorf("branch at +%#x targets %#x, not a function entry",
					raw[i].addr-fn.Addr, in.TargetAddr)
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

// landingPads decodes the function's LSDA, when its FDE names one, and
// makes every landing pad a leader. A pad that is not an instruction
// start is left for attachLSDA to report, if a call is actually covered
// by it.
func (ctx *BinaryContext) landingPads(fn *BinaryFunction, fde *cfi.FDE, raw []rawInst) (*cfi.LSDA, error) {
	if fde == nil || fde.LSDA == 0 {
		return nil, nil
	}
	lsda, err := cfi.DecodeLSDA(ctx.lsdaData, uint32(fde.LSDA-ctx.lsdaBase))
	if err != nil {
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
// instruction counts are known from the leader flags, so both are
// slab-allocated exactly once: one backing array of BasicBlocks and one
// of Insts per function, instead of an incremental append per block and
// per instruction.
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
	blockSlab := make([]BasicBlock, nBlocks)
	instSlab := make([]Inst, 0, nInsts)
	fn.Blocks = make([]*BasicBlock, 0, nBlocks)
	if len(sc.jts) > 0 {
		fn.JTs = make([]*JumpTable, 0, len(sc.jts))
	}
	var cur *BasicBlock
	curStart := 0
	// lt.Entries[lineNext] is the first line entry past lineAddr (what
	// dbg.Table.LookupEntry searches for); 0 = not yet searched.
	lt := ctx.LineTable
	lineNext, lineAddr := 0, uint64(0)
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
			cur = &blockSlab[len(fn.Blocks)]
			cur.Index = len(fn.Blocks)
			cur.Addr = r.addr
			cur.CFIIn = -1
			cur.Label = intern.Label(cur.Index)
			fn.Blocks = append(fn.Blocks, cur)
			curStart = len(instSlab)
		}
		if r.inst.Op == isa.NOP {
			continue // stripped
		}
		// Filled in place: the slab came zeroed, and an Inst is too wide
		// to build on the stack and copy in.
		instSlab = instSlab[:len(instSlab)+1]
		ci := &instSlab[len(instSlab)-1]
		ci.I, ci.Size, ci.Addr, ci.CFIIdx = r.inst, r.size, r.addr, -1
		if lt != nil {
			// Instructions arrive in address order, so the entry covering
			// this one is at or just past the one that covered the last:
			// step the cursor, and search only on a backwards step.
			if lineNext == 0 || r.addr < lineAddr {
				lineNext = sort.Search(len(lt.Entries), func(i int) bool { return lt.Entries[i].Addr > r.addr })
			}
			for lineNext < len(lt.Entries) && lt.Entries[lineNext].Addr <= r.addr {
				lineNext++
			}
			lineAddr = r.addr
			if lineNext > 0 && int(lt.Entries[lineNext-1].File) < len(lt.Files) {
				ci.Src = int32(lineNext)
			}
		}
		if k := len(fn.JTs); k < len(sc.jts) && sc.jts[k].at == i {
			fn.JTs = append(fn.JTs, sc.jts[k].table)
			ci.JT = uint16(k + 1)
		}
		// Resolve RIP memory operands via decode (absolute target).
		if r.inst.HasMem() && r.inst.M.RIP {
			ci.MemTarget = r.addr + uint64(r.size) + uint64(int64(r.inst.M.Disp))
		}
		// Symbolize external direct targets.
		if r.inst.Op == isa.CALL || (r.inst.IsDirectBranch() && !fn.contains(r.inst.TargetAddr)) {
			if g := ctx.FuncByAddr(r.inst.TargetAddr); g != nil {
				ci.TargetSym = g.Ref()
			}
		}
	}
	seal()
}

// maxInstTable bounds the per-function tables Inst.JT and Inst.LP index
// (one-based uint16); a function past it is left untouched as non-simple.
const maxInstTable = 1<<16 - 1

// pendingJT is a recovered jump table until blocks exist: the raw index
// of its indirect jump and its entries' addresses, a window of
// loaderScratch.targets (which stays readable if a later table's append
// moves the slab: the array it was cut from keeps its contents).
type pendingJT struct {
	table   *JumpTable
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
			if r.Op == isa.LEA && r.R1 == reg && r.M.RIP {
				return raw[k].addr + uint64(raw[k].size) + uint64(int64(r.M.Disp)), true
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
	for _, s := range ctx.File.Symbols {
		if s.Type == elfx.STTObject && s.Value == tableAddr {
			symName, symSize = s.Name, s.Size
			break
		}
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
		table: &JumpTable{Addr: tableAddr, EntrySize: entrySize, PIC: pic, SymName: symName},
		at:    i, targets: sc.targets[lo:],
	})
	return nil
}

// buildCFG wires successor/predecessor edges and jump-table targets.
// Edges are collected into the worker's scratch first so the per-block
// Succs/Preds storage can be carved out of two exactly-sized slabs (one
// edge array, one predecessor array per function) instead of growing
// each block's slices by append.
func buildCFG(fn *BinaryFunction, sc *loaderScratch) {
	if len(fn.Blocks) == 0 {
		fn.Simple = false
		fn.Reason = "empty function"
		return
	}
	fn.Blocks[0].IsEntry = true
	sc.seen = resetCounts(sc.seen, len(fn.Blocks))
	sc.stamp = 0
	// A conditional tail call (present in gobolt's own SCTC output, which
	// the continuous-profiling loop re-disassembles) has no block
	// successor for its taken side; it simply contributes no edge.
	edges := sc.edges[:0]
	addEdge := func(from *BasicBlock, to *BasicBlock) {
		edges = append(edges, edgeRef{from: from, to: to})
	}
	for bi, b := range fn.Blocks {
		var next *BasicBlock
		if bi+1 < len(fn.Blocks) {
			next = fn.Blocks[bi+1]
		}
		last := b.LastInst()
		if last == nil {
			if next != nil {
				addEdge(b, next)
			}
			continue
		}
		switch {
		case last.I.Op == isa.JMP:
			if to := fn.blockStarting(last.I.TargetAddr); to != nil {
				addEdge(b, to)
			}
			// else: external tail call, no successor
		case last.I.Op == isa.JCC:
			if to := fn.blockStarting(last.I.TargetAddr); to != nil {
				addEdge(b, to) // Succs[0] = taken
			}
			if next != nil {
				addEdge(b, next) // fall-through (Succs[1], or [0] for a cond tail call)
			}
		case last.JT != 0:
			// One edge per unique target; the table keeps one slot per
			// entry (duplicates allowed). disassemble made every entry a
			// leader, so each resolves to a block.
			sc.stamp++
			jt := fn.JumpTable(last)
			raw := sc.jts[last.JT-1].targets
			jt.Targets = make([]*BasicBlock, len(raw))
			for k, taddr := range raw {
				to := fn.blockStarting(taddr)
				if sc.seen[to.Index] != sc.stamp {
					sc.seen[to.Index] = sc.stamp
					addEdge(b, to)
				}
				jt.Targets[k] = to
			}
		case last.I.IsReturn() || last.I.Op == isa.HLT || last.I.Op == isa.UD2:
			// no successors
		case last.I.IsIndirectBranch():
			// unreachable: would have been non-simple
		default:
			if next != nil {
				addEdge(b, next)
			}
		}
	}
	sc.edges = edges

	// Carve Succs/Preds out of two exact-size slabs. Three-index caps
	// mean a pass appending an edge later reallocates that block's slice
	// instead of overwriting a neighbour's slab storage.
	sc.succN = resetCounts(sc.succN, len(fn.Blocks))
	sc.predN = resetCounts(sc.predN, len(fn.Blocks))
	for _, e := range edges {
		sc.succN[e.from.Index]++
		sc.predN[e.to.Index]++
	}
	edgeSlab := make([]Edge, len(edges))
	predSlab := make([]*BasicBlock, len(edges))
	so, po := 0, 0
	for _, b := range fn.Blocks {
		if n := int(sc.succN[b.Index]); n > 0 {
			b.Succs = edgeSlab[so : so : so+n]
			so += n
		}
		if n := int(sc.predN[b.Index]); n > 0 {
			b.Preds = predSlab[po : po : po+n]
			po += n
		}
	}
	for _, e := range edges {
		e.from.Succs = append(e.from.Succs, Edge{To: e.to})
		e.to.Preds = append(e.to.Preds, e.from)
	}
}

// resetCounts returns a zeroed int32 slice of length n, reusing s's
// backing array when it is big enough.
func resetCounts(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// attachCFI replays the FDE over the original instruction order and
// interns per-instruction unwind states. Save and restore rules naming a
// register the state cannot track are skipped and counted.
func attachCFI(fn *BinaryFunction, fde *cfi.FDE, sc *loaderScratch) {
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
	idx := int32(-1)
	at := func(off uint32) int32 {
		if apply(off) || idx < 0 {
			idx = fn.InternState(st)
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
			b.Insts[i].CFIIdx = at(uint32(b.Insts[i].Addr - fn.Addr))
		}
		b.CFIIn = b.Insts[0].CFIIdx
	}
}

// internLandingPad returns the one-based index of (lpb, action) in the
// function's landing-pad table, adding it if new; 0 when the table is
// full. Consecutive calls mostly share a pad and a function has few, so a
// backwards scan beats a map (as in InternState).
func (f *BinaryFunction) internLandingPad(lpb *BasicBlock, action int32) uint16 {
	for i := len(f.lps) - 1; i >= 0; i-- {
		if f.lps[i].block == lpb && f.lps[i].action == action {
			return uint16(i + 1)
		}
	}
	if len(f.lps) == maxInstTable {
		return 0
	}
	f.lps = append(f.lps, landingPad{block: lpb, action: action})
	return uint16(len(f.lps))
}

// attachLSDA connects calls to their landing pads and marks LP blocks.
// Each block lists a landing pad once: sc.seen, restamped per block,
// de-duplicates them — a linear scan per insert made attachment O(n²)
// for functions with many landing-pad preds.
func attachLSDA(fn *BinaryFunction, lsda *cfi.LSDA, sc *loaderScratch) {
	for _, b := range fn.Blocks {
		sc.stamp++
		for i := range b.Insts {
			in := &b.Insts[i]
			if !in.IsCall() {
				continue
			}
			off := uint32(in.Addr - fn.Addr)
			if lp, action, ok := lsda.Lookup(off); ok {
				lpb := fn.blockStarting(lp)
				if lpb == nil {
					fn.Simple = false
					fn.Reason = "landing pad not at block boundary"
					return
				}
				if in.LP = fn.internLandingPad(lpb, action); in.LP == 0 {
					fn.Simple = false
					fn.Reason = "too many landing pads"
					return
				}
				lpb.IsLP = true
				if sc.seen[lpb.Index] != sc.stamp {
					sc.seen[lpb.Index] = sc.stamp
					b.LPs = append(b.LPs, lpb)
				}
				lpb.Preds = append(lpb.Preds, b)
			}
		}
	}
}
