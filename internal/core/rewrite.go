package core

//boltvet:hot-path emission back half (layout/patch/metadata), allocation-scrubbed in PRs 6-7

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

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
// in place (paper §3.2 relocations mode). Cancelling cx aborts the
// parallel emission phase promptly and returns cx.Err().
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
	f := ctx.File
	res := &RewriteResult{}
	ctx.EmitTimings = nil

	// Ordered list of functions to move.
	moved := ctx.orderedSimpleFuncs()
	for _, fn := range ctx.Funcs {
		if fn.FoldedInto != nil {
			res.FoldedFuncs++
		} else if !fn.Simple {
			res.SkippedFuncs++
		}
	}

	// Emit every hot/cold fragment concurrently into per-function
	// buffers. Each emitFunction call reads and writes only its own
	// function plus its worker's scratch (assembler, label table, mark
	// lists — reused across the worker's whole share of functions), and
	// results land at a fixed slice index, so the layout below — and
	// therefore the output bytes — are identical for any worker count.
	emitStart := time.Now()
	emits := make([]*emitted, len(moved))
	jobs := par.Jobs(ctx.Opts.Jobs, len(moved))
	escratch := make([]emitScratch, jobs)
	if _, err := ctx.forPhase(cx, "emit:functions",
		func(i int) string { return moved[i].Name },
		len(moved), jobs, func(w, i int) error {
			e, err := ctx.emitFunction(moved[i], &escratch[w])
			if err != nil {
				return err
			}
			emits[i] = e
			return nil
		}); err != nil {
		return nil, err
	}
	emitWall := time.Since(emitStart)
	ctx.Opts.Trace.Phase("emit:functions", emitStart, emitWall, jobs)
	ctx.EmitTimings = append(ctx.EmitTimings, PassTiming{
		Name: "emit:functions", Wall: emitWall,
		Funcs: len(moved), Parallel: jobs > 1, Jobs: jobs,
	})
	// ---- emit:layout ----
	// Serial address assignment: a prefix-sum over the emitted fragment
	// sizes. Inherently sequential (each function's address depends on
	// every predecessor's aligned size) but linear and branch-free, so it
	// is a sliver of the former monolithic layout+patch region.
	layoutStart := time.Now()

	// New section layout after the last alloc section.
	align := func(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }
	end := uint64(0)
	for _, s := range f.Sections {
		if s.Flags&elfx.SHFAlloc != 0 && s.Addr+s.Size() > end {
			end = s.Addr + s.Size()
		}
	}
	hotBase := align(end, 0x1000)
	addr := hotBase
	fa := uint64(ctx.Opts.AlignFunctions)
	if fa == 0 {
		fa = 16
	}
	for _, e := range emits {
		addr = align(addr, fa)
		e.fn.OutAddr = addr
		e.fn.OutSize = uint64(len(e.Hot.Code))
		addr += e.fn.OutSize
	}
	hotEnd := addr
	coldBase := align(hotEnd, 64)
	addr = coldBase
	for _, e := range emits {
		if e.Cold == nil {
			continue
		}
		addr = align(addr, 16)
		e.fn.ColdAddr = addr
		e.fn.ColdSize = uint64(len(e.Cold.Code))
		addr += e.fn.ColdSize
		res.SplitFuncs++
	}
	coldEnd := addr
	res.MovedFuncs = len(emits)
	res.HotTextSize = hotEnd - hotBase
	res.ColdTextSize = coldEnd - coldBase
	// emitOf is indexed by function ordinal (BinaryFunction.ordIdx); nil
	// for functions that were not re-emitted.
	emitOf := make([]*emitted, len(ctx.Funcs))
	for _, e := range emits {
		emitOf[e.fn.ordIdx] = e
	}
	layoutWall := time.Since(layoutStart)
	ctx.Opts.Trace.Phase("emit:layout", layoutStart, layoutWall, 1)
	ctx.EmitTimings = append(ctx.EmitTimings, PassTiming{
		Name: "emit:layout", Wall: layoutWall,
		Funcs: len(emits), Jobs: 1,
	})

	// Symbol resolution for emitted relocations.
	blockAddr := func(fn *BinaryFunction, idx int, e *emitted) (uint64, bool) {
		if off, ok := e.Hot.blockOff(idx); ok {
			return fn.OutAddr + uint64(off), true
		}
		if e.Cold != nil {
			if off, ok := e.Cold.blockOff(idx); ok {
				return fn.ColdAddr + uint64(off), true
			}
		}
		return 0, false
	}
	// finalFuncAddr resolves a function name to its final entry address,
	// following ICF folds. (Input relocations and the entry point carry
	// names; emitted relocations carry packed IDs — see resolveID.)
	finalFuncAddr := func(name string) (uint64, bool) {
		fn := ctx.ByName[name]
		if fn == nil {
			return 0, false
		}
		for fn.FoldedInto != nil {
			fn = fn.FoldedInto
		}
		if emitOf[fn.ordIdx] != nil {
			return fn.OutAddr, true
		}
		return fn.Addr, true
	}
	resolveID := func(sym obj.SymID) (uint64, error) {
		switch sym.Kind() {
		case obj.SymFunc:
			fn := ctx.Funcs[sym.FuncOrd()]
			for fn.FoldedInto != nil {
				fn = fn.FoldedInto
			}
			if emitOf[fn.ordIdx] != nil {
				return fn.OutAddr, nil
			}
			return fn.Addr, nil
		case obj.SymBlock:
			ord, idx := sym.BlockRef()
			fn := ctx.Funcs[ord]
			e := emitOf[fn.ordIdx]
			if e == nil {
				return 0, fmt.Errorf("core: block sym for unmoved function %q", fn.Name)
			}
			if v, ok := blockAddr(fn, idx, e); ok {
				return v, nil
			}
			return 0, fmt.Errorf("core: block %d of %s not emitted", idx, fn.Name)
		case obj.SymAbs:
			return sym.AbsAddr(), nil
		}
		return 0, fmt.Errorf("core: bad emission sym %#x", sym)
	}

	// ---- emit:patch ----
	// Patch emitted code and place it into the new text sections. Each
	// function's relocations target only its own fragment buffers, and
	// the layout assigns every fragment a disjoint range of the output
	// sections, so both the patching and the section copy fan out over
	// the worker pool; only the input-section rela patching and jump
	// table rewrite (shared section data) stay serial.
	patchStart := time.Now()
	patch32 := func(code []byte, off uint32, v uint32) {
		binary.LittleEndian.PutUint32(code[off:], v)
	}
	patchFrag := func(frag *emittedFrag, base uint64) error {
		for _, r := range frag.Relocs {
			s, err := resolveID(r.SymID)
			if err != nil {
				return err
			}
			if r.Type == relImmAbs32 {
				patch32(frag.Code, r.Off, uint32(int64(s)+r.Addend))
				continue
			}
			p := base + uint64(r.Off)
			patch32(frag.Code, r.Off, uint32(int64(s)+r.Addend-int64(p)))
		}
		return nil
	}
	hotData := make([]byte, hotEnd-hotBase)
	var coldData []byte
	if coldEnd > coldBase {
		coldData = make([]byte, coldEnd-coldBase)
	}
	if _, err := ctx.forPhase(cx, "emit:patch",
		func(i int) string { return emits[i].fn.Name },
		len(emits), jobs, func(_, i int) error {
			e := emits[i]
			if err := patchFrag(e.Hot, e.fn.OutAddr); err != nil {
				return err
			}
			copy(hotData[e.fn.OutAddr-hotBase:], e.Hot.Code)
			if e.Cold != nil {
				if err := patchFrag(e.Cold, e.fn.ColdAddr); err != nil {
					return err
				}
				copy(coldData[e.fn.ColdAddr-coldBase:], e.Cold.Code)
			}
			return nil
		}); err != nil {
		return nil, err
	}

	// Build the output file: copy sections (patched below).
	out := elfx.New()
	movedFn := func(name string) *BinaryFunction {
		fn := ctx.ByName[name]
		if fn == nil {
			return nil
		}
		for fn.FoldedInto != nil {
			fn = fn.FoldedInto
		}
		if emitOf[fn.ordIdx] != nil {
			return fn
		}
		return nil
	}

	// mapOldAddr translates an address inside a moved function's original
	// body to its new location (block-granular; used for data relocs and
	// jump tables).
	mapOldAddr := func(old uint64) (uint64, bool) {
		fn := ctx.FuncContaining(old)
		if fn == nil {
			return 0, false
		}
		for fn.FoldedInto != nil {
			// Identical bodies: same offsets.
			canon := fn.FoldedInto
			old = canon.Addr + (old - fn.Addr)
			fn = canon
		}
		e := emitOf[fn.ordIdx]
		if e == nil {
			return old, true // unmoved
		}
		if old == fn.Addr {
			return fn.OutAddr, true
		}
		if b := fn.BlockAt(old); b != nil {
			if v, ok := blockAddr(fn, b.Index, e); ok {
				return v, true
			}
		}
		return 0, false
	}

	for _, s := range f.Sections {
		ns := &elfx.Section{
			Name: s.Name, Type: s.Type, Flags: s.Flags, Addr: s.Addr,
			Data: append([]byte(nil), s.Data...), Link: s.Link, Info: s.Info,
			Addralign: s.Addralign, Entsize: s.Entsize,
		}
		switch s.Name {
		case ".text":
			ns.Name = ".bolt.org.text"
			res.OrigTextSize = s.Size()
		case cfi.FrameSectionName, cfi.LSDASectionName, dbg.SectionName:
			continue // regenerated below
		}
		out.AddSection(ns)
	}

	// Patch stale references inside kept sections. The patched ranges
	// are disjoint per section, but iterate in sorted order anyway so
	// the emission path is order-deterministic by construction (and
	// any future cross-section state stays schedule-free).
	relaNames := make([]string, 0, len(f.Relas))
	for sectName := range f.Relas {
		relaNames = append(relaNames, sectName)
	}
	sort.Strings(relaNames)
	for _, sectName := range relaNames {
		relas := f.Relas[sectName]
		sec := f.Section(sectName)
		outName := sectName
		if sectName == ".text" {
			outName = ".bolt.org.text"
		}
		osec := out.Section(outName)
		if sec == nil || osec == nil {
			continue
		}
		isCode := sec.Flags&elfx.SHFExecinstr != 0
		for _, r := range relas {
			p := sec.Addr + r.Off
			if isCode {
				// Only patch code of functions that stay in place.
				owner := ctx.FuncContaining(p)
				if owner == nil || movedFn(owner.Name) != nil || owner.FoldedInto != nil {
					continue
				}
				target := ctx.ByName[r.Sym]
				if target == nil {
					continue
				}
				tm := movedFn(r.Sym)
				foldTarget := target.FoldedInto != nil
				if tm == nil && !foldTarget {
					continue // target did not move
				}
				switch r.Type {
				case obj.RelPC32, obj.RelPLT32:
					// Calls/tail-calls target function entries (addend is
					// the conventional -4).
					entry, ok := finalFuncAddr(r.Sym)
					if !ok {
						continue
					}
					binary.LittleEndian.PutUint32(osec.Data[r.Off:],
						uint32(int64(entry)+r.Addend-int64(p)))
				case obj.RelAbs64:
					oldVal := target.Addr + uint64(r.Addend)
					if nv, ok := mapOldAddr(oldVal); ok {
						binary.LittleEndian.PutUint64(osec.Data[r.Off:], nv)
					}
				}
				continue
			}
			// Data sections: retarget absolute words into moved code.
			if r.Type == obj.RelAbs64 {
				target := ctx.ByName[r.Sym]
				if target == nil {
					continue
				}
				oldVal := target.Addr + uint64(r.Addend)
				if nv, ok := mapOldAddr(oldVal); ok && nv != oldVal {
					binary.LittleEndian.PutUint64(osec.Data[r.Off:], nv)
				}
			}
		}
	}

	// Rewrite PIC jump tables of moved functions (no relocations exist
	// for them; gobolt recovered the tables by analysis, §3.2).
	for _, e := range emits {
		for _, jt := range e.fn.JTs {
			sec := out.SectionFor(jt.Addr)
			if sec == nil {
				continue
			}
			off := jt.Addr - sec.Addr
			for i, tb := range jt.Targets {
				if tb == nil {
					continue
				}
				nv, ok := blockAddr(e.fn, tb.Index, e)
				if !ok {
					return nil, fmt.Errorf("core: jump table of %s references unemitted block %d", e.fn.Name, tb.Index)
				}
				if jt.PIC {
					binary.LittleEndian.PutUint32(sec.Data[off+uint64(4*i):], uint32(int64(nv)-int64(jt.Addr)))
				} else {
					binary.LittleEndian.PutUint64(sec.Data[off+uint64(8*i):], nv)
				}
			}
		}
	}

	// Register the new text sections (data filled by the parallel
	// patch+copy stage above).
	out.AddSection(&elfx.Section{
		Name: ".text", Type: elfx.SHTProgbits,
		Flags: elfx.SHFAlloc | elfx.SHFExecinstr,
		Addr:  hotBase, Data: hotData, Addralign: 16,
	})
	if coldEnd > coldBase {
		out.AddSection(&elfx.Section{
			Name: ".text.cold", Type: elfx.SHTProgbits,
			Flags: elfx.SHFAlloc | elfx.SHFExecinstr,
			Addr:  coldBase, Data: coldData, Addralign: 16,
		})
	}
	patchWall := time.Since(patchStart)
	ctx.Opts.Trace.Phase("emit:patch", patchStart, patchWall, jobs)
	ctx.EmitTimings = append(ctx.EmitTimings, PassTiming{
		Name: "emit:patch", Wall: patchWall,
		Funcs: len(emits), Parallel: jobs > 1, Jobs: jobs,
	})

	// ---- emit:metadata ----
	// BAT, exception tables, line table, and symbols. Per-function blobs
	// (LSDA call-site tables, FDE skeletons, line entries) are built in
	// parallel into index-addressed slots; the serial tail only
	// concatenates them in layout order, so section bytes match a fully
	// serial rebuild.
	metaStart := time.Now()

	// BOLT Address Translation table (§7.3 continuous profiling): one
	// range per emitted fragment, anchoring every surviving instruction's
	// output offset to its input-function offset. Built from the ordered
	// emits slice, so the section bytes are identical for any worker
	// count.
	if ctx.Opts.EnableBAT {
		bt := &bat.Table{}
		addRange := func(fn *BinaryFunction, frag *emittedFrag, start uint64, cold bool) {
			r := bat.Range{
				FuncIdx: bt.AddFunc(fn.Name, fn.Size),
				Start:   start, Size: uint32(len(frag.Code)), Cold: cold,
			}
			for _, an := range frag.Anchors {
				// Instructions spliced in from another function (inlined
				// bodies keep their origin addresses) are not part of this
				// function's input coordinate space; skip them.
				if an.InAddr < fn.Addr || an.InAddr >= fn.Addr+fn.Size {
					continue
				}
				r.Entries = append(r.Entries, bat.Entry{
					OutOff: an.Off, InOff: uint32(an.InAddr - fn.Addr),
				})
			}
			bt.AddRange(r)
		}
		for _, e := range emits {
			addRange(e.fn, e.Hot, e.fn.OutAddr, false)
			if e.Cold != nil {
				addRange(e.fn, e.Cold, e.fn.ColdAddr, true)
			}
		}
		out.AddSection(&elfx.Section{
			Name: bat.SectionName, Type: elfx.SHTProgbits,
			Data: bt.Encode(), Addralign: 1,
		})
	}

	// Exception tables: regenerate the LSDA section and all FDEs. Each
	// fragment's call-site table is encoded into a private blob by the
	// worker pool (cfi.EncodeLSDA is a pure append, so blobs concatenate
	// byte-identically to sequential encoding); the serial join assigns
	// the blob base offsets in layout order. Line entries for moved code
	// are offset per fragment in the same parallel pass.
	lsdaBase := align(coldEnd, 8)
	type lineEntry struct {
		addr uint64
		file string
		line uint32
	}
	type emitMeta struct {
		hotLSDA, coldLSDA []byte
		hotFDE, coldFDE   cfi.FDE
		lines             []lineEntry
	}
	metas := make([]emitMeta, len(emits))
	buildLSDA := func(frag *emittedFrag, e *emitted) ([]byte, error) {
		if len(frag.CallSites) == 0 {
			return nil, nil
		}
		l := &cfi.LSDA{CallSites: make([]cfi.CallSite, 0, len(frag.CallSites))}
		for _, cs := range frag.CallSites {
			lp, ok := blockAddr(e.fn, cs.LP.Index, e)
			if !ok {
				return nil, fmt.Errorf("core: landing pad block %d of %s not emitted", cs.LP.Index, e.fn.Name)
			}
			l.CallSites = append(l.CallSites, cfi.CallSite{
				Start: cs.Start, Len: cs.Len, LandingPad: lp, Action: cs.Action,
			})
		}
		blob, _ := cfi.EncodeLSDA(nil, l)
		return blob, nil
	}
	if _, err := ctx.forPhase(cx, "emit:metadata",
		func(i int) string { return emits[i].fn.Name },
		len(emits), jobs, func(_, i int) error {
			e, m := emits[i], &metas[i]
			var err error
			if m.hotLSDA, err = buildLSDA(e.Hot, e); err != nil {
				return err
			}
			m.hotFDE = cfi.FDE{Start: e.fn.OutAddr, Len: uint32(len(e.Hot.Code)), Insts: e.Hot.CFI}
			if ctx.Opts.UpdateDebugSections {
				for _, ln := range e.Hot.Lines {
					m.lines = append(m.lines, lineEntry{e.fn.OutAddr + uint64(ln.Off), ln.File, uint32(ln.Line)})
				}
			}
			if e.Cold != nil {
				if m.coldLSDA, err = buildLSDA(e.Cold, e); err != nil {
					return err
				}
				m.coldFDE = cfi.FDE{Start: e.fn.ColdAddr, Len: uint32(len(e.Cold.Code)), Insts: e.Cold.CFI}
				if ctx.Opts.UpdateDebugSections {
					for _, ln := range e.Cold.Lines {
						m.lines = append(m.lines, lineEntry{e.fn.ColdAddr + uint64(ln.Off), ln.File, uint32(ln.Line)})
					}
				}
			}
			return nil
		}); err != nil {
		return nil, err
	}
	// Serial concat: upper bound on FDE count is one per emitted fragment
	// plus every kept input FDE; the LSDA blob is presized to the summed
	// emitted-fragment size so the concat loop (almost) never regrows it
	// — only kept input LSDAs re-encoded below can push past the hint.
	lsdaSize := 0
	for i := range metas {
		lsdaSize += len(metas[i].hotLSDA) + len(metas[i].coldLSDA)
	}
	lsdaData := make([]byte, 0, lsdaSize)
	fdes := make([]cfi.FDE, 0, len(emits)+res.SplitFuncs+len(ctx.fdes))
	for i, e := range emits {
		m := &metas[i]
		if m.hotLSDA != nil {
			m.hotFDE.LSDA = lsdaBase + uint64(len(lsdaData))
			lsdaData = append(lsdaData, m.hotLSDA...)
		}
		fdes = append(fdes, m.hotFDE)
		if e.Cold != nil {
			if m.coldLSDA != nil {
				m.coldFDE.LSDA = lsdaBase + uint64(len(lsdaData))
				lsdaData = append(lsdaData, m.coldLSDA...)
			}
			fdes = append(fdes, m.coldFDE)
		}
	}
	// Keep FDEs (and LSDA records) of unmoved functions.
	for _, fde := range ctx.fdes {
		fn := ctx.FuncContaining(fde.Start)
		if fn != nil && (emitOf[fn.ordIdx] != nil || fn.FoldedInto != nil) {
			continue
		}
		nf := fde
		if fde.LSDA != 0 {
			old, err := cfi.DecodeLSDA(ctx.lsdaData, uint32(fde.LSDA-ctx.lsdaBase))
			if err != nil {
				return nil, err
			}
			var off uint32
			lsdaData, off = cfi.EncodeLSDA(lsdaData, old)
			nf.LSDA = lsdaBase + uint64(off)
		}
		fdes = append(fdes, nf)
	}
	if len(lsdaData) > 0 {
		out.AddSection(&elfx.Section{
			Name: cfi.LSDASectionName, Type: elfx.SHTProgbits, Flags: elfx.SHFAlloc,
			Addr: lsdaBase, Data: lsdaData, Addralign: 8,
		})
	}
	out.AddSection(&elfx.Section{
		Name: cfi.FrameSectionName, Type: elfx.SHTProgbits,
		Data: cfi.EncodeFrames(fdes), Addralign: 8,
	})

	// Debug line table (-update-debug-sections).
	if ctx.Opts.UpdateDebugSections {
		nt := &dbg.Table{}
		if ctx.LineTable != nil {
			for _, en := range ctx.LineTable.Entries {
				fn := ctx.FuncContaining(en.Addr)
				if fn != nil && (emitOf[fn.ordIdx] != nil || fn.FoldedInto != nil) {
					continue
				}
				if int(en.File) < len(ctx.LineTable.Files) {
					nt.Add(en.Addr, ctx.LineTable.Files[en.File], en.Line)
				}
			}
		}
		// Moved-code entries were offset per fragment by the parallel
		// metadata pass; Add them in layout order so file interning and
		// the (order-sensitive) sort+dedup match a serial rebuild.
		for i := range metas {
			for _, ln := range metas[i].lines {
				nt.Add(ln.addr, ln.file, ln.line)
			}
		}
		nt.Sort()
		out.AddSection(&elfx.Section{
			Name: dbg.SectionName, Type: elfx.SHTProgbits,
			Data: nt.Encode(), Addralign: 8,
		})
	}

	// Symbols: every input symbol survives, plus one ".cold.0" marker per
	// split function.
	out.Symbols = make([]elfx.Symbol, 0, len(f.Symbols)+res.SplitFuncs)
	for _, sym := range f.Symbols {
		ns := sym
		if sym.Type == elfx.STTFunc {
			if fn := ctx.ByName[sym.Name]; fn != nil {
				canon := fn
				for canon.FoldedInto != nil {
					canon = canon.FoldedInto
				}
				if e := emitOf[canon.ordIdx]; e != nil {
					ns.Value = canon.OutAddr
					ns.Size = canon.OutSize
					ns.Section = ".text"
				} else if sym.Section == ".text" {
					ns.Section = ".bolt.org.text"
				}
			} else if sym.Section == ".text" {
				ns.Section = ".bolt.org.text"
			}
		} else if sym.Section == ".text" {
			ns.Section = ".bolt.org.text"
		}
		out.Symbols = append(out.Symbols, ns)
	}
	for _, e := range emits {
		if e.Cold != nil {
			out.Symbols = append(out.Symbols, elfx.Symbol{
				//boltvet:alloc-ok one symbol-name string per split function; elfx.Symbol.Name is a string, so the allocation is inherent
				Name: e.fn.Name + ".cold.0", Value: e.fn.ColdAddr, Size: e.fn.ColdSize,
				Type: elfx.STTFunc, Bind: elfx.STBLocal, Section: ".text.cold",
			})
		}
	}

	// Entry point.
	out.Entry = f.Entry
	if v, ok := finalFuncAddr("_start"); ok {
		out.Entry = v
	}
	metaWall := time.Since(metaStart)
	ctx.Opts.Trace.Phase("emit:metadata", metaStart, metaWall, jobs)
	ctx.EmitTimings = append(ctx.EmitTimings, PassTiming{
		Name: "emit:metadata", Wall: metaWall,
		Funcs: len(emits), Parallel: jobs > 1, Jobs: jobs,
	})
	res.File = out
	return res, nil
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
