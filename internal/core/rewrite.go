package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"gobolt/internal/bat"
	"gobolt/internal/cfi"
	"gobolt/internal/dbg"
	"gobolt/internal/elfx"
	"gobolt/internal/obj"
	"gobolt/internal/par"
)

// RewriteResult reports what the rewrite did.
type RewriteResult struct {
	File  *elfx.File
	Image []byte // File serialized; File's sections are windows of it

	Functions
	Sizes
}

// Functions is the rewrite's function accounting: moved into the new
// layout (every final rewritable function), skipped as non-simple,
// folded by ICF, split hot/cold. The JSON tags are the run report's.
type Functions struct {
	MovedFuncs   int `json:"moved"`
	SkippedFuncs int `json:"skipped"`
	FoldedFuncs  int `json:"folded"`
	SplitFuncs   int `json:"split"`
}

// Sizes holds the emitted section sizes versus the original .text.
type Sizes struct {
	HotTextSize  uint64 `json:"hot_text"`
	ColdTextSize uint64 `json:"cold_text"`
	OrigTextSize uint64 `json:"orig_text"`
}

// Rewrite emits all simple functions into a fresh .text (hot) and
// .text.cold (split) layout, patches every reference the relocations
// reveal, rebuilds CFI/LSDA/line metadata, and returns the new
// executable. Non-simple functions stay at their original addresses in
// the renamed ".bolt.org.text" section with their outgoing calls patched
// in place (paper §3.2 relocations mode). It is Figure 3's last two
// boxes as four stages over one emitter — assemble fragments, place
// them, regenerate metadata, write the image — each appending its
// "emit" row to ctx.Timings. Only the first stage fans out over the
// worker pool: layout is a prefix sum, and metadata and patching are
// serial loops because each is a small fraction of the rewrite and a
// pool over it stays mostly idle. Cancelling cx aborts the parallel
// stage promptly and returns cx.Err().
func (ctx *BinaryContext) Rewrite(cx context.Context) (*RewriteResult, error) {
	if cx == nil {
		cx = context.Background()
	}
	if !ctx.HasRelocs {
		return nil, fmt.Errorf("core: relocations mode requires a binary linked with --emit-relocs")
	}
	if err := cx.Err(); err != nil {
		return nil, err
	}
	e := &emitter{ctx: ctx, out: elfx.New(), text: [2]textSection{{name: ".text"}, {name: ".text.cold"}}}
	for _, stage := range []struct {
		name   string
		serial bool
		run    func(context.Context) error
	}{
		{"emit:functions", false, e.assemble},
		{"emit:layout", true, e.place},
		{"emit:metadata", true, e.metadata},
		{"emit:patch", true, e.patch},
	} {
		ph := ctx.begin("emit", stage.name)
		if err := stage.run(cx); err != nil {
			return nil, err
		}
		jobs := e.jobs
		if stage.serial {
			jobs = 1
		}
		ph.end(len(e.funcs), jobs)
	}
	e.res.File = e.out
	return &e.res, nil
}

// emitter carries one Rewrite from assembled fragments to the output
// file. Its address methods — final/funcAddr, blockAddr, mapOldAddr — are
// the only spelling of where input code ends up.
type emitter struct {
	ctx  *BinaryContext
	jobs int // workers of emit:functions
	out  *elfx.File
	res  RewriteResult

	funcs []emittedFn    // layout order
	byOrd []*emittedFn   // BinaryFunction.ordIdx -> entry of funcs; nil = not re-emitted
	text  [2]textSection // text[s] holds frags[s] of every function
	// rest[i] is the instruction count of funcs[i:], the weight that
	// paces the emission workers' slabs.
	rest []int64
}

// emittedFn is the emitted form of one function. Its fragments and
// block offsets are windows of two emitter-wide tables.
type emittedFn struct {
	fn       *BinaryFunction
	frags    []fragment // the entry (hot) fragment, then the cold one when split
	blockOff []uint32   // see noBlockOff
}

// textSection is one of the two output code sections.
type textSection struct {
	name      string
	base, end uint64
}

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

// final follows ICF folds from fn to the function whose body survives
// and returns it with its emitted form, nil when it stays in place.
func (e *emitter) final(fn *BinaryFunction) (*BinaryFunction, *emittedFn) {
	for fn.FoldedInto != nil {
		fn = fn.FoldedInto
	}
	return fn, e.byOrd[fn.ordIdx]
}

// stays reports whether fn's input body remains live code in the output:
// it was neither re-emitted nor folded into another function.
func (e *emitter) stays(fn *BinaryFunction) bool {
	return fn.FoldedInto == nil && e.byOrd[fn.ordIdx] == nil
}

// funcAddr returns the final entry address of fn.
func (e *emitter) funcAddr(fn *BinaryFunction) uint64 {
	fn, ef := e.final(fn)
	if ef == nil {
		return fn.Addr
	}
	return ef.frags[0].addr
}

// blockAddr returns the output address of the block of fn with the given
// Index. Folds are not followed: block references only exist inside a
// function's own emitted code and tables.
func (e *emitter) blockAddr(fn *BinaryFunction, idx int) (uint64, error) {
	ef := e.byOrd[fn.ordIdx]
	if ef == nil {
		return 0, fmt.Errorf("core: block sym for unmoved function %q", fn.Name)
	}
	if idx < 0 || idx >= len(ef.blockOff) || ef.blockOff[idx] == noBlockOff {
		return 0, fmt.Errorf("core: block %d of %s not emitted", idx, fn.Name)
	}
	off := ef.blockOff[idx]
	return ef.frags[off>>blockOffBits].addr + uint64(off&(1<<blockOffBits-1)), nil
}

// mapOldAddr translates an address inside a function's input body to
// where that code now lives (block-granular; used for data relocations
// and absolute code references).
func (e *emitter) mapOldAddr(old uint64) (uint64, bool) {
	fn := e.ctx.FuncContaining(old)
	if fn == nil {
		return 0, false
	}
	canon, ef := e.final(fn)
	old = canon.Addr + (old - fn.Addr) // identical bodies: same offsets
	if ef == nil {
		return old, true
	}
	if old == canon.Addr {
		return ef.frags[0].addr, true
	}
	if b := canon.BlockAt(old); b != nil {
		if v, err := e.blockAddr(canon, b.Index); err == nil {
			return v, true
		}
	}
	return 0, false
}

// symAddr resolves the packed symbol of an emission relocation.
func (e *emitter) symAddr(sym obj.SymID) (uint64, error) {
	switch sym.Kind() {
	case obj.SymFunc:
		return e.funcAddr(e.ctx.Funcs[sym.FuncOrd()]), nil
	case obj.SymBlock:
		ord, idx := sym.BlockRef()
		return e.blockAddr(e.ctx.Funcs[ord], idx)
	case obj.SymAbs:
		return sym.AbsAddr(), nil
	}
	return 0, fmt.Errorf("core: bad emission sym %#x", sym)
}

// assemble (emit:functions) emits every movable function concurrently
// into per-function fragments. Each emitFunction call reads and writes
// only its own function, its windows of the emitter's tables, and its
// worker's scratch (reused across the worker's whole share of
// functions), and results land at a fixed slice index, so the layout —
// and therefore the output bytes — are identical for any worker count.
func (e *emitter) assemble(cx context.Context) error {
	e.prepare(e.ctx.orderedSimpleFuncs())
	scratch := make([]emitScratch, e.jobs)
	for w := range scratch {
		scratch[w].pace.jobs = e.jobs
	}
	_, err := par.ForTraced(cx, e.ctx.Opts.Trace, "emit:functions",
		func(i int) string { return e.funcs[i].fn.Name },
		len(e.funcs), e.jobs, func(w, i int) error {
			return e.emit(&scratch[w], i)
		})
	return err
}

// prepare lists the functions to emit, in layout order, and gives each
// its windows of one fragment table and one block-offset table, both
// sized by emitShape before emission starts.
func (e *emitter) prepare(moved []*BinaryFunction) {
	e.funcs = make([]emittedFn, len(moved))
	e.jobs = par.Jobs(e.ctx.Opts.Jobs, len(moved))
	e.rest = make([]int64, len(moved)+1)
	nFrags, nOffs := 0, 0
	for i, fn := range moved {
		frags, offs, insts := emitShape(fn)
		nFrags += frags
		nOffs += offs
		e.rest[i] = int64(insts)
	}
	for i := len(moved) - 1; i >= 0; i-- {
		e.rest[i] += e.rest[i+1]
	}
	fragTab, offTab := make([]fragment, nFrags), make([]uint32, nOffs)
	for i, fn := range moved {
		frags, offs, _ := emitShape(fn)
		e.funcs[i] = emittedFn{fn: fn, frags: fragTab[:frags:frags], blockOff: offTab[:offs:offs]}
		fragTab, offTab = fragTab[frags:], offTab[offs:]
	}
}

// emit assembles e.funcs[i] with the worker's scratch sc.
func (e *emitter) emit(sc *emitScratch, i int) error {
	ef := &e.funcs[i]
	sc.pace.next(e.rest, i)
	return e.ctx.emitFunction(ef.fn, ef.frags, ef.blockOff, sc)
}

// cacheLine is the instruction-cache line size the text layout is planned
// around (internal/uarch's L1I and the x86 parts the paper measures on).
const cacheLine = 64

// placeFragment returns where a fragment of size bytes goes when addr is
// the first free address of its section. A fragment of a function with
// profile is padded only when the padding saves a cache line: it stays at
// addr if it spans the minimum ⌈size/cacheLine⌉ lines from there, and
// starts the next line otherwise. Without a profile there is no evidence
// that any alignment buys anything, so such a fragment is packed.
func placeFragment(addr, size uint64, sampled bool) uint64 {
	if !sampled || size == 0 || addr%cacheLine+(size-1)%cacheLine < cacheLine {
		return addr
	}
	return alignUp(addr, cacheLine)
}

// place (emit:layout) assigns every fragment its output address: a
// prefix-sum over the fragment sizes, all hot fragments after the last
// allocated input section, then all cold ones, each at placeFragment's
// choice. Inherently sequential (each address depends on every
// predecessor's padded size) but linear.
func (e *emitter) place(context.Context) error {
	ctx := e.ctx
	addr := uint64(0)
	for _, s := range ctx.File.Sections {
		if s.Flags&elfx.SHFAlloc != 0 {
			addr = max(addr, s.Addr+s.Size())
		}
	}
	pad := uint64(0)
	for s, sectAlign := range []uint64{0x1000, cacheLine} {
		sec := &e.text[s]
		addr = alignUp(addr, sectAlign)
		sec.base = addr
		for i := range e.funcs {
			if frags := e.funcs[i].frags; s < len(frags) {
				size := uint64(len(frags[s].Code))
				at := placeFragment(addr, size, e.funcs[i].fn.Sampled)
				pad += at - addr
				frags[s].addr = at
				addr = at + size
			}
		}
		sec.end = addr
	}
	ctx.CountStat(StatEmitPadBytes, int64(pad))
	e.byOrd = make([]*emittedFn, len(ctx.Funcs))
	for i := range e.funcs {
		ef := &e.funcs[i]
		e.byOrd[ef.fn.ordIdx] = ef
		e.res.SplitFuncs += len(ef.frags) - 1
	}
	for _, fn := range ctx.Funcs {
		if fn.FoldedInto != nil {
			e.res.FoldedFuncs++
		} else if !fn.Simple {
			e.res.SkippedFuncs++
		}
	}
	e.res.MovedFuncs = len(e.funcs)
	e.res.HotTextSize = e.text[0].end - e.text[0].base
	e.res.ColdTextSize = e.text[1].end - e.text[1].base
	return nil
}

// patch (emit:patch) writes the image. The metadata sections are built
// by now and the code sections are declared by their size, so the file is
// laid out and its image allocated once, with the metadata and the kept
// input sections copied in. Then one loop, in layout order, resolves each
// fragment's relocations and copies it into its window, and the stale
// references in the kept input sections and jump tables are patched in
// place.
func (e *emitter) patch(context.Context) error {
	in := e.ctx.File.Sections
	secs := make([]*elfx.Section, 0, len(in)+len(e.text)+len(e.out.Sections))
	for _, s := range in {
		// A kept section starts as the input's bytes, which Image copies
		// into the image and then replaces with its window there.
		ns := &elfx.Section{
			Name: s.Name, Type: s.Type, Flags: s.Flags, Addr: s.Addr,
			Data: s.Data, Link: s.Link, Info: s.Info,
			Addralign: s.Addralign, Entsize: s.Entsize,
		}
		switch s.Name {
		case ".text":
			// Kept under a new name for the functions that stay in place.
			ns.Name = ".bolt.org.text"
			e.res.OrigTextSize = s.Size()
		case cfi.FrameSectionName, cfi.LSDASectionName, dbg.SectionName:
			continue // regenerated by the metadata stage
		}
		secs = append(secs, ns)
	}
	var text [2]*elfx.Section
	for s := range e.text {
		if sec := &e.text[s]; s == 0 || sec.end > sec.base {
			text[s] = &elfx.Section{
				Name: sec.name, Type: elfx.SHTProgbits,
				Flags: elfx.SHFAlloc | elfx.SHFExecinstr,
				Addr:  sec.base, Len: sec.end - sec.base, Addralign: cacheLine,
			}
			secs = append(secs, text[s])
		}
	}
	// The metadata sections, added by emit:metadata, go last.
	e.out.Sections = append(secs, e.out.Sections...)
	img, err := e.out.Image()
	if err != nil {
		return err
	}
	for i := range e.funcs {
		for s := range e.funcs[i].frags {
			fr := &e.funcs[i].frags[s]
			for _, r := range fr.Relocs {
				v, err := e.symAddr(r.SymID)
				if err != nil {
					return err
				}
				v += uint64(r.Addend)
				if r.Type != relImmAbs32 { // PC-relative
					v -= fr.addr + uint64(r.Off)
				}
				binary.LittleEndian.PutUint32(fr.Code[r.Off:], uint32(v))
			}
			copy(text[s].Data[fr.addr-text[s].Addr:], fr.Code)
		}
	}
	e.patchInputRelocs()
	if err := e.rewriteJumpTables(); err != nil {
		return err
	}
	e.res.Image = img
	return nil
}

// patchInputRelocs patches stale references inside kept sections. The
// patched ranges are disjoint per section, but iterate in sorted order
// anyway so the emission path is order-deterministic by construction
// (and any future cross-section state stays schedule-free).
func (e *emitter) patchInputRelocs() {
	ctx, f := e.ctx, e.ctx.File
	relaNames := make([]string, 0, len(f.Relas))
	for sectName := range f.Relas {
		relaNames = append(relaNames, sectName)
	}
	sort.Strings(relaNames)
	for _, sectName := range relaNames {
		sec := f.Section(sectName)
		outName := sectName
		if sectName == ".text" {
			outName = ".bolt.org.text"
		}
		osec := e.out.Section(outName)
		if sec == nil || osec == nil {
			continue
		}
		isCode := sec.Flags&elfx.SHFExecinstr != 0
		for _, r := range f.Relas[sectName] {
			p := sec.Addr + r.Off
			target := ctx.ByName[r.Sym]
			if target == nil {
				continue
			}
			if isCode {
				// Only code of functions that stay in place is patched, and
				// only where the target moved or was folded.
				if owner := ctx.FuncContaining(p); owner == nil || !e.stays(owner) || e.stays(target) {
					continue
				}
				if r.Type == obj.RelPC32 || r.Type == obj.RelPLT32 {
					// Calls/tail-calls target function entries (addend is
					// the conventional -4).
					binary.LittleEndian.PutUint32(osec.Data[r.Off:],
						uint32(int64(e.funcAddr(target))+r.Addend-int64(p)))
					continue
				}
			}
			// Absolute words into moved code, from code or data.
			if r.Type == obj.RelAbs64 {
				oldVal := target.Addr + uint64(r.Addend)
				if nv, ok := e.mapOldAddr(oldVal); ok && nv != oldVal {
					binary.LittleEndian.PutUint64(osec.Data[r.Off:], nv)
				}
			}
		}
	}
}

// rewriteJumpTables rewrites the PIC jump tables of moved functions (no
// relocations exist for them; gobolt recovered the tables by analysis,
// §3.2).
func (e *emitter) rewriteJumpTables() error {
	for i := range e.funcs {
		fn := e.funcs[i].fn
		for j := range fn.JTs {
			jt := &fn.JTs[j]
			sec := e.out.SectionFor(jt.Addr)
			if sec == nil {
				continue
			}
			off := jt.Addr - sec.Addr
			for k, tb := range jt.Targets {
				if tb == nil {
					continue
				}
				nv, err := e.blockAddr(fn, tb.Index)
				if err != nil {
					return fmt.Errorf("core: jump table of %s references unemitted block %d", fn.Name, tb.Index)
				}
				if jt.PIC {
					binary.LittleEndian.PutUint32(sec.Data[off+uint64(4*k):], uint32(int64(nv)-int64(jt.Addr)))
				} else {
					binary.LittleEndian.PutUint64(sec.Data[off+uint64(8*k):], nv)
				}
			}
		}
	}
	return nil
}

// metadata (emit:metadata) regenerates BAT, exception tables, the line
// table and symbols. Everything is built from e.funcs in layout order,
// hot then cold fragment per function.
func (e *emitter) metadata(context.Context) error {
	if e.ctx.Opts.EnableBAT {
		e.writeBAT()
	}
	if err := e.writeFrames(); err != nil {
		return err
	}
	if e.ctx.Opts.UpdateDebugSections {
		e.writeLines()
	}
	e.writeSymbols()
	e.out.Entry = e.ctx.File.Entry
	if start := e.ctx.ByName["_start"]; start != nil {
		e.out.Entry = e.funcAddr(start)
	}
	return nil
}

// writeBAT emits the BOLT Address Translation table (§7.3 continuous
// profiling): one range per emitted fragment, anchoring every surviving
// instruction's output offset to its input-function offset. The ranges
// are the hot fragments, then the cold ones, in layout order, which is
// address order; their entries are already in wire form.
func (e *emitter) writeBAT() {
	// The table lists each function name once, where it first appears in
	// layout order. Every function of a name shares ByName's function for
	// it, whose ordinal keys the name's index (plus one; 0 = not listed).
	byKey := make([]int32, len(e.ctx.Funcs))
	funcs := make([]bat.FuncInfo, 0, len(e.funcs))
	idx := make([]int32, len(e.funcs)) // e.funcs[i]'s name's index
	for i := range e.funcs {
		fn := e.funcs[i].fn
		key := fn
		if c := e.ctx.ByName[fn.Name]; c != nil {
			key = c
		}
		if byKey[key.ordIdx] == 0 {
			funcs = append(funcs, bat.FuncInfo{Name: fn.Name, InSize: fn.Size})
			byKey[key.ordIdx] = int32(len(funcs))
		}
		idx[i] = byKey[key.ordIdx] - 1
	}
	ranges := func(yield func(bat.RangeHead, *bat.Anchors) bool) {
		for s := range e.text {
			for i := range e.funcs {
				if frags := e.funcs[i].frags; s < len(frags) {
					fr := &frags[s]
					h := bat.RangeHead{FuncIdx: int(idx[i]), Start: fr.addr, Size: uint32(len(fr.Code)), Cold: fr.cold}
					if !yield(h, &fr.BAT) {
						return
					}
				}
			}
		}
	}
	e.out.AddSection(&elfx.Section{
		Name: bat.SectionName, Type: elfx.SHTProgbits,
		Data: bat.Write(funcs, ranges), Addralign: 1,
	})
}

// writeFrames regenerates the LSDA section and all FDEs. Each fragment's
// call-site table, with its landing pads resolved, is appended straight
// into the LSDA section in layout order, and then the kept input LSDAs
// are re-encoded after them.
func (e *emitter) writeFrames() error {
	ctx := e.ctx
	lsdaBase := alignUp(e.text[1].end, 8)
	var lsdaData []byte
	var lsda cfi.LSDA // one fragment's or one kept function's table, reused
	fdes := make([]cfi.FDE, 0, len(e.funcs)+e.res.SplitFuncs+len(ctx.fdes))
	for i := range e.funcs {
		for s := range e.funcs[i].frags {
			fr := &e.funcs[i].frags[s]
			fde := cfi.FDE{Start: fr.addr, Len: uint32(len(fr.Code)), Insts: fr.CFI}
			if len(fr.CallSites) > 0 {
				lsda.CallSites = lsda.CallSites[:0]
				for _, cs := range fr.CallSites {
					lp, err := e.blockAddr(fr.fn, cs.LP.Index)
					if err != nil {
						return fmt.Errorf("core: landing pad block %d of %s not emitted", cs.LP.Index, fr.fn.Name)
					}
					lsda.CallSites = append(lsda.CallSites, cfi.CallSite{
						Start: cs.Start, Len: cs.Len, LandingPad: lp, Action: cs.Action,
					})
				}
				var off uint32
				lsdaData, off = cfi.EncodeLSDA(lsdaData, &lsda)
				fde.LSDA = lsdaBase + uint64(off)
			}
			fdes = append(fdes, fde)
		}
	}
	// Keep FDEs (and LSDA records) of functions that stay in place.
	for _, fde := range ctx.fdes {
		if fn := ctx.FuncContaining(fde.Start); fn != nil && !e.stays(fn) {
			continue
		}
		if fde.LSDA != 0 {
			if err := lsda.Decode(ctx.lsdaData, uint32(fde.LSDA-ctx.lsdaBase)); err != nil {
				return err
			}
			var off uint32
			lsdaData, off = cfi.EncodeLSDA(lsdaData, &lsda)
			fde.LSDA = lsdaBase + uint64(off)
		}
		fdes = append(fdes, fde)
	}
	if len(lsdaData) > 0 {
		e.out.AddSection(&elfx.Section{
			Name: cfi.LSDASectionName, Type: elfx.SHTProgbits, Flags: elfx.SHFAlloc,
			Addr: lsdaBase, Data: lsdaData, Addralign: 8,
		})
	}
	e.out.AddSection(&elfx.Section{
		Name: cfi.FrameSectionName, Type: elfx.SHTProgbits,
		Data: cfi.EncodeFrames(fdes), Addralign: 8,
	})
	return nil
}

// writeLines rebuilds the debug line table (-update-debug-sections):
// input entries of code that stays, then one entry per line mark of every
// fragment. Added in layout order, so file interning and the
// (order-sensitive) sort+dedup are schedule-independent.
func (e *emitter) writeLines() {
	nt := &dbg.Table{}
	if lt := e.ctx.LineTable; lt != nil {
		for _, en := range lt.Entries {
			if fn := e.ctx.FuncContaining(en.Addr); fn != nil && !e.stays(fn) {
				continue
			}
			if int(en.File) < len(lt.Files) {
				nt.Add(en.Addr, lt.Files[en.File], en.Line)
			}
		}
	}
	for i := range e.funcs {
		for s := range e.funcs[i].frags {
			fr := &e.funcs[i].frags[s]
			for _, ln := range fr.Lines {
				nt.Add(fr.addr+uint64(ln.Off), ln.File, uint32(ln.Line))
			}
		}
	}
	nt.Sort()
	e.out.AddSection(&elfx.Section{
		Name: dbg.SectionName, Type: elfx.SHTProgbits,
		Data: nt.Encode(), Addralign: 8,
	})
}

// writeSymbols carries every input symbol over — function symbols follow
// their (folded-into) function to its entry fragment — and adds one
// ".cold.0" marker per cold fragment.
func (e *emitter) writeSymbols() {
	f := e.ctx.File
	e.out.Symbols = make([]elfx.Symbol, 0, len(f.Symbols)+e.res.SplitFuncs)
	for _, sym := range f.Symbols {
		if sym.Section == ".text" {
			sym.Section = ".bolt.org.text"
		}
		if fn := e.ctx.ByName[sym.Name]; fn != nil && sym.Type == elfx.STTFunc {
			if _, ef := e.final(fn); ef != nil {
				entry := &ef.frags[0]
				sym.Value, sym.Size, sym.Section = entry.addr, uint64(len(entry.Code)), e.text[0].name
			}
		}
		e.out.Symbols = append(e.out.Symbols, sym)
	}
	const suffix = ".cold.0"
	cold, size := len(e.out.Symbols), 0
	for i := range e.funcs {
		for s := range e.funcs[i].frags {
			if fr := &e.funcs[i].frags[s]; fr.cold {
				e.out.Symbols = append(e.out.Symbols, elfx.Symbol{
					Name: fr.fn.Name, Value: fr.addr, Size: uint64(len(fr.Code)),
					Type: elfx.STTFunc, Bind: elfx.STBLocal, Section: e.text[s].name,
				})
				size += len(fr.fn.Name) + len(suffix)
			}
		}
	}
	// Each marker's name is its function's name and the suffix, cut from
	// one string that holds them all back to back.
	var b strings.Builder
	b.Grow(size)
	for _, sym := range e.out.Symbols[cold:] {
		b.WriteString(sym.Name)
		b.WriteString(suffix)
	}
	names := b.String()
	for i := range e.out.Symbols[cold:] {
		sym := &e.out.Symbols[cold+i]
		n := len(sym.Name) + len(suffix)
		sym.Name, names = names[:n], names[n:]
	}
}

// orderedSimpleFuncs returns movable functions in the final layout order
// (FuncOrder from reorder-functions first, the rest in original order).
func (ctx *BinaryContext) orderedSimpleFuncs() []*BinaryFunction {
	simple := ctx.SimpleFuncs()
	// rank is negative for FuncOrder's functions, in its order, and 0 for
	// the rest, which the stable sort keeps in address order.
	rank := make([]int, len(ctx.Funcs)+1) // by FuncRef
	for k, r := range ctx.FuncOrder {
		rank[r] = k - len(ctx.FuncOrder)
	}
	slices.SortStableFunc(simple, func(a, b *BinaryFunction) int { return rank[a.Ref()] - rank[b.Ref()] })
	return simple
}
