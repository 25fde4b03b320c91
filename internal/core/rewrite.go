package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"gobolt/internal/bat"
	"gobolt/internal/cfi"
	"gobolt/internal/dbg"
	"gobolt/internal/elfx"
	"gobolt/internal/obj"
	"gobolt/internal/par"
)

// RewriteResult reports what the rewrite did.
type RewriteResult struct {
	File *elfx.File

	MovedFuncs   int
	SkippedFuncs int
	HotTextSize  uint64
	ColdTextSize uint64
	OrigTextSize uint64
	FoldedFuncs  int
	SplitFuncs   int
}

// Rewrite emits all simple functions into a fresh .text (hot) and
// .text.cold (split) layout, patches every reference the relocations
// reveal, rebuilds CFI/LSDA/line metadata, and returns the new
// executable. Non-simple functions stay at their original addresses in
// the renamed ".bolt.org.text" section with their outgoing calls patched
// in place (paper §3.2 relocations mode). It is Figure 3's last two
// boxes as four stages over one emitter — assemble fragments, place
// them, patch references, regenerate metadata — each appending its
// "emit" row to ctx.Timings. Cancelling cx aborts the parallel stages
// promptly and returns cx.Err().
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
		{"emit:patch", false, e.patch},
		{"emit:metadata", false, e.metadata},
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
	jobs int // workers of the parallel stages
	out  *elfx.File
	res  RewriteResult

	funcs []emittedFn    // layout order
	byOrd []*emittedFn   // BinaryFunction.ordIdx -> entry of funcs; nil = not re-emitted
	text  [2]textSection // text[s] holds frags[s] of every function
}

// emittedFn is the emitted form of one function.
type emittedFn struct {
	fn       *BinaryFunction
	frags    []fragment // the entry (hot) fragment, then the cold one when split
	blockOff []uint32   // see noBlockOff
}

// textSection is one of the two output code sections.
type textSection struct {
	name      string
	base, end uint64
	data      []byte
}

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

func (e *emitter) taskName(i int) string { return e.funcs[i].fn.Name }

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
// only its own function plus its worker's scratch (reused across the
// worker's whole share of functions), and results land at a fixed slice
// index, so the layout — and therefore the output bytes — are identical
// for any worker count.
func (e *emitter) assemble(cx context.Context) error {
	ctx := e.ctx
	moved := ctx.orderedSimpleFuncs()
	e.funcs = make([]emittedFn, len(moved))
	e.jobs = par.Jobs(ctx.Opts.Jobs, len(moved))
	scratch := make([]emitScratch, e.jobs)
	_, err := par.ForTraced(cx, ctx.Opts.Trace, "emit:functions",
		func(i int) string { return moved[i].Name },
		len(moved), e.jobs, func(w, i int) (err error) {
			ef := &e.funcs[i]
			ef.fn = moved[i]
			ef.frags, ef.blockOff, err = ctx.emitFunction(moved[i], &scratch[w])
			return err
		})
	return err
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

// patch (emit:patch) resolves every reference now that addresses are
// fixed. Each function's relocations target only its own fragment
// buffers, and the layout gives every fragment a disjoint range of the
// output sections, so patching and the section copy fan out over the
// worker pool; only the input-section rela patching and jump table
// rewrite (shared section data) stay serial.
func (e *emitter) patch(cx context.Context) error {
	for s := range e.text {
		e.text[s].data = make([]byte, e.text[s].end-e.text[s].base)
	}
	if _, err := par.ForTraced(cx, e.ctx.Opts.Trace, "emit:patch", e.taskName,
		len(e.funcs), e.jobs, func(_, i int) error {
			for s := range e.funcs[i].frags {
				fr, sec := &e.funcs[i].frags[s], &e.text[s]
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
				copy(sec.data[fr.addr-sec.base:], fr.Code)
			}
			return nil
		}); err != nil {
		return err
	}
	e.copyInputSections()
	e.patchInputRelocs()
	if err := e.rewriteJumpTables(); err != nil {
		return err
	}
	for s := range e.text {
		if sec := &e.text[s]; s == 0 || len(sec.data) > 0 {
			e.out.AddSection(&elfx.Section{
				Name: sec.name, Type: elfx.SHTProgbits,
				Flags: elfx.SHFAlloc | elfx.SHFExecinstr,
				Addr:  sec.base, Data: sec.data, Addralign: cacheLine,
			})
		}
	}
	return nil
}

// copyInputSections starts the output file from the input's sections;
// .text is kept under a new name for the functions that stay in place.
func (e *emitter) copyInputSections() {
	for _, s := range e.ctx.File.Sections {
		ns := &elfx.Section{
			Name: s.Name, Type: s.Type, Flags: s.Flags, Addr: s.Addr,
			Data: append([]byte(nil), s.Data...), Link: s.Link, Info: s.Info,
			Addralign: s.Addralign, Entsize: s.Entsize,
		}
		switch s.Name {
		case ".text":
			ns.Name = ".bolt.org.text"
			e.res.OrigTextSize = s.Size()
		case cfi.FrameSectionName, cfi.LSDASectionName, dbg.SectionName:
			continue // regenerated by the metadata stage
		}
		e.out.AddSection(ns)
	}
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
		for _, jt := range fn.JTs {
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
// hot then cold fragment per function, so section bytes are identical
// for any worker count.
func (e *emitter) metadata(cx context.Context) error {
	if e.ctx.Opts.EnableBAT {
		e.writeBAT()
	}
	if err := e.writeFrames(cx); err != nil {
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
// instruction's output offset to its input-function offset.
func (e *emitter) writeBAT() {
	bt := &bat.Table{}
	for i := range e.funcs {
		fn := e.funcs[i].fn
		for s := range e.funcs[i].frags {
			fr := &e.funcs[i].frags[s]
			r := bat.Range{
				FuncIdx: bt.AddFunc(fn.Name, fn.Size),
				Start:   fr.addr, Size: uint32(len(fr.Code)), Cold: fr.cold,
				Entries: make([]bat.Entry, 0, len(fr.Anchors)),
			}
			for _, an := range fr.Anchors {
				// Instructions spliced in from another function (inlined
				// bodies keep their origin addresses) are not part of this
				// function's input coordinate space; skip them.
				if !fn.contains(an.InAddr) {
					continue
				}
				r.Entries = append(r.Entries, bat.Entry{
					OutOff: an.Off, InOff: uint32(an.InAddr - fn.Addr),
				})
			}
			bt.AddRange(r)
		}
	}
	e.out.AddSection(&elfx.Section{
		Name: bat.SectionName, Type: elfx.SHTProgbits,
		Data: bt.Encode(), Addralign: 1,
	})
}

// writeFrames regenerates the LSDA section and all FDEs. Each fragment's
// call-site table is encoded into a private blob by the worker pool
// (cfi.EncodeLSDA is a pure append, so blobs concatenate byte-identically
// to sequential encoding); the serial join assigns the blob base offsets
// in layout order.
func (e *emitter) writeFrames(cx context.Context) error {
	ctx := e.ctx
	lsdaBase := alignUp(e.text[1].end, 8)
	blobs := make([][2][]byte, len(e.funcs))
	if _, err := par.ForTraced(cx, ctx.Opts.Trace, "emit:metadata", e.taskName,
		len(e.funcs), e.jobs, func(_, i int) (err error) {
			for s := range e.funcs[i].frags {
				if blobs[i][s], err = e.encodeLSDA(&e.funcs[i].frags[s]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
		return err
	}
	// Upper bound on FDE count is one per emitted fragment plus every kept
	// input FDE; the LSDA section is presized to the summed blobs so the
	// concat loop (almost) never regrows it — only kept input LSDAs
	// re-encoded below can push past the hint.
	lsdaSize := 0
	for i := range blobs {
		lsdaSize += len(blobs[i][0]) + len(blobs[i][1])
	}
	lsdaData := make([]byte, 0, lsdaSize)
	fdes := make([]cfi.FDE, 0, len(e.funcs)+e.res.SplitFuncs+len(ctx.fdes))
	for i := range e.funcs {
		for s := range e.funcs[i].frags {
			fr := &e.funcs[i].frags[s]
			fde := cfi.FDE{Start: fr.addr, Len: uint32(len(fr.Code)), Insts: fr.CFI}
			if blob := blobs[i][s]; blob != nil {
				fde.LSDA = lsdaBase + uint64(len(lsdaData))
				lsdaData = append(lsdaData, blob...)
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
			old, err := cfi.DecodeLSDA(ctx.lsdaData, uint32(fde.LSDA-ctx.lsdaBase))
			if err != nil {
				return err
			}
			var off uint32
			lsdaData, off = cfi.EncodeLSDA(lsdaData, old)
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

// encodeLSDA encodes the fragment's call-site table with its landing
// pads resolved, nil when it has no call sites.
func (e *emitter) encodeLSDA(fr *fragment) ([]byte, error) {
	if len(fr.CallSites) == 0 {
		return nil, nil
	}
	l := &cfi.LSDA{CallSites: make([]cfi.CallSite, 0, len(fr.CallSites))}
	for _, cs := range fr.CallSites {
		lp, err := e.blockAddr(fr.fn, cs.LP.Index)
		if err != nil {
			return nil, fmt.Errorf("core: landing pad block %d of %s not emitted", cs.LP.Index, fr.fn.Name)
		}
		l.CallSites = append(l.CallSites, cfi.CallSite{
			Start: cs.Start, Len: cs.Len, LandingPad: lp, Action: cs.Action,
		})
	}
	blob, _ := cfi.EncodeLSDA(nil, l)
	return blob, nil
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
	for i := range e.funcs {
		for s := range e.funcs[i].frags {
			if fr := &e.funcs[i].frags[s]; fr.cold {
				e.out.Symbols = append(e.out.Symbols, elfx.Symbol{
					Name: fr.fn.Name + ".cold.0", Value: fr.addr, Size: uint64(len(fr.Code)),
					Type: elfx.STTFunc, Bind: elfx.STBLocal, Section: e.text[s].name,
				})
			}
		}
	}
}

// orderedSimpleFuncs returns movable functions in the final layout order
// (FuncOrder from reorder-functions first, the rest in original order).
func (ctx *BinaryContext) orderedSimpleFuncs() []*BinaryFunction {
	simple := ctx.SimpleFuncs()
	if len(ctx.FuncOrder) == 0 {
		return simple
	}
	placed := make(map[*BinaryFunction]bool, len(simple))
	out := make([]*BinaryFunction, 0, len(simple))
	for _, name := range ctx.FuncOrder {
		fn := ctx.ByName[name]
		if fn == nil || !fn.Simple || fn.FoldedInto != nil || placed[fn] {
			continue
		}
		placed[fn] = true
		out = append(out, fn)
	}
	for _, fn := range simple {
		if !placed[fn] {
			out = append(out, fn)
		}
	}
	return out
}
