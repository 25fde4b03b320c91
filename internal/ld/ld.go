// Package ld is the static linker: it combines objects produced by
// internal/cc into a runnable ELF64 executable.
//
// Features the BOLT workflow depends on: --emit-relocs (keeping
// relocations in the output so gobolt's relocations mode can move
// functions, paper §3.2), linker-level identical code folding (the
// baseline gobolt's ICF must beat by ~3%, §4), PLT/GOT synthesis for calls
// into the simulated shared library (target of the plt pass), and optional
// profile-driven function ordering (the HFSort-at-link-time baseline used
// for the Figure 5 experiments).
package ld

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"

	"gobolt/internal/cfi"
	"gobolt/internal/dbg"
	"gobolt/internal/elfx"
	"gobolt/internal/obj"
)

// Image layout constants: .plt, then .text, start at DefaultTextBase.
const (
	DefaultTextBase = uint64(0x401000)
	pageSize        = uint64(0x1000)
	pltEntrySize    = 16
)

// Options configures a link.
type Options struct {
	// EmitRelocs keeps relocations in the executable (--emit-relocs).
	EmitRelocs bool
	// ICF folds identical relocation-free functions (linker-grade ICF;
	// functions with jump tables or other relocations are *not* folded,
	// leaving headroom gobolt's binary-level ICF exploits).
	ICF bool
	// NoPLT statically binds calls to shared-module functions instead of
	// synthesizing PLT stubs (an LTO-style static link).
	NoPLT bool
	// FuncOrder lays out the named functions first, in the given order
	// (profile-driven ordering such as HFSort); remaining functions keep
	// their input order.
	FuncOrder []string
}

// Result bundles the linked image with link-time statistics.
type Result struct {
	File *elfx.File
	// ICFFolded counts functions removed by linker ICF.
	ICFFolded int
	// TextSize is the total .text size in bytes.
	TextSize uint64
}

// Link produces an executable from the given objects. The entry point is
// the function named "_start".
func Link(objs []*obj.Object, opts Options) (*Result, error) {
	// Collect functions and globals, preserving input order.
	var funcs []*obj.Func
	var globals []*obj.Global
	funcByName := map[string]*obj.Func{}
	globalByName := map[string]*obj.Global{}
	for _, o := range objs {
		for _, f := range o.Funcs {
			if funcByName[f.Name] != nil {
				return nil, fmt.Errorf("ld: duplicate function %q", f.Name)
			}
			funcByName[f.Name] = f
			funcs = append(funcs, f)
		}
		for _, g := range o.Globals {
			if globalByName[g.Name] != nil {
				return nil, fmt.Errorf("ld: duplicate global %q", g.Name)
			}
			globalByName[g.Name] = g
			globals = append(globals, g)
		}
	}
	if funcByName["_start"] == nil {
		return nil, fmt.Errorf("ld: no _start function")
	}

	// Linker ICF.
	aliases := map[string]string{} // folded name -> kept name
	folded := 0
	if opts.ICF {
		kept := map[string]string{} // body key -> name
		var keptFuncs []*obj.Func
		for _, f := range funcs {
			if len(f.Relocs) > 0 || len(f.CallSites) > 0 || f.Name == "_start" {
				keptFuncs = append(keptFuncs, f)
				continue
			}
			key := string(f.Bytes) + "\x00" + string(cfi.EncodeFrames([]cfi.FDE{{Insts: f.CFI}}))
			if orig, ok := kept[key]; ok {
				aliases[f.Name] = orig
				folded++
				continue
			}
			kept[key] = f.Name
			keptFuncs = append(keptFuncs, f)
		}
		funcs = keptFuncs
	}
	resolveAlias := func(name string) string {
		if a, ok := aliases[name]; ok {
			return a
		}
		return name
	}

	// PLT stubs needed?
	pltTargets := []string{}
	pltSeen := map[string]bool{}
	if !opts.NoPLT {
		for _, f := range funcs {
			for _, r := range f.Relocs {
				t := resolveAlias(r.Sym)
				if r.Type == obj.RelPLT32 && !pltSeen[t] {
					pltSeen[t] = true
					pltTargets = append(pltTargets, t)
				}
			}
		}
		sort.Strings(pltTargets)
	}

	// Function layout order.
	ordered := orderFuncs(funcs, opts.FuncOrder)

	// Address assignment: .plt, then .text.
	align := func(v, a uint64) uint64 {
		if a == 0 {
			a = 1
		}
		return (v + a - 1) &^ (a - 1)
	}
	pltBase := DefaultTextBase
	pltSize := uint64(len(pltTargets) * pltEntrySize)
	textBase := align(pltBase+pltSize, 16)

	funcAddr := map[string]uint64{}
	addr := textBase
	for _, f := range ordered {
		addr = align(addr, uint64(f.Align))
		funcAddr[f.Name] = addr
		addr += uint64(len(f.Bytes))
	}
	textEnd := addr

	// Data layout: .rodata then .data on fresh pages.
	rodataBase := align(textEnd, pageSize)
	globalAddr := map[string]uint64{}
	a2 := rodataBase
	var roList, rwList []*obj.Global
	for _, g := range globals {
		if !g.Writable {
			roList = append(roList, g)
		} else {
			rwList = append(rwList, g)
		}
	}
	for _, g := range roList {
		a2 = align(a2, uint64(max(g.Align, 1)))
		globalAddr[g.Name] = a2
		a2 += uint64(len(g.Data))
	}
	rodataEnd := a2
	dataBase := align(rodataEnd, pageSize)
	a2 = dataBase
	for _, g := range rwList {
		a2 = align(a2, uint64(max(g.Align, 1)))
		globalAddr[g.Name] = a2
		a2 += uint64(len(g.Data))
	}
	dataEnd := a2

	// GOT after data.
	gotBase := align(dataEnd, 8)
	gotAddr := map[string]uint64{}
	for i, t := range pltTargets {
		gotAddr[t] = gotBase + uint64(8*i)
	}
	gotEnd := gotBase + uint64(8*len(pltTargets))

	pltStubAddr := map[string]uint64{}
	for i, t := range pltTargets {
		pltStubAddr[t] = pltBase + uint64(i*pltEntrySize)
	}

	// symValue resolves a symbol to its final address.
	symValue := func(name string) (uint64, error) {
		n := resolveAlias(name)
		if v, ok := funcAddr[n]; ok {
			return v, nil
		}
		if v, ok := globalAddr[n]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("ld: undefined symbol %q", name)
	}

	// Patch code.
	textData := make([]byte, textEnd-textBase)
	var textRelas []elfx.Rela
	for _, f := range ordered {
		base := funcAddr[f.Name]
		copy(textData[base-textBase:], f.Bytes)
		for _, r := range f.Relocs {
			p := base + uint64(r.Off)
			s, err := symValue(r.Sym)
			if err != nil {
				return nil, fmt.Errorf("ld: in %s: %w", f.Name, err)
			}
			switch r.Type {
			case obj.RelPC32:
				binary.LittleEndian.PutUint32(textData[p-textBase:], uint32(int64(s)+r.Addend-int64(p)))
			case obj.RelPLT32:
				target := s
				if stub, ok := pltStubAddr[resolveAlias(r.Sym)]; ok {
					target = stub
				}
				binary.LittleEndian.PutUint32(textData[p-textBase:], uint32(int64(target)+r.Addend-int64(p)))
			case obj.RelAbs64:
				binary.LittleEndian.PutUint64(textData[p-textBase:], uint64(int64(s)+r.Addend))
			default:
				return nil, fmt.Errorf("ld: unsupported reloc type %d in %s", r.Type, f.Name)
			}
			if opts.EmitRelocs {
				textRelas = append(textRelas, elfx.Rela{
					Off: p - textBase, Type: r.Type, Sym: resolveAlias(r.Sym), Addend: r.Addend,
				})
			}
		}
	}

	// PLT stub bodies: jmp *GOT[i](%rip), padded with NOPs.
	pltData := make([]byte, pltSize)
	for _, t := range pltTargets {
		stub := pltStubAddr[t]
		got := gotAddr[t]
		off := stub - pltBase
		pltData[off] = 0xFF
		pltData[off+1] = 0x25
		disp := uint32(int64(got) - int64(stub) - 6)
		binary.LittleEndian.PutUint32(pltData[off+2:], disp)
		// Pad the 16-byte entry with decodable NOPs.
		copy(pltData[off+6:], []byte{0x0F, 0x1F, 0x84, 0x00, 0, 0, 0, 0, 0x66, 0x90})
	}

	// Patch global data.
	rodataData := make([]byte, rodataEnd-rodataBase)
	dataData := make([]byte, dataEnd-dataBase)
	var roRelas, rwRelas []elfx.Rela
	patchGlobal := func(g *obj.Global, sect []byte, sectBase uint64, relas *[]elfx.Rela) error {
		base := globalAddr[g.Name]
		copy(sect[base-sectBase:], g.Data)
		for _, r := range g.Relocs {
			p := base + uint64(r.Off)
			s, err := symValue(r.Sym)
			if err != nil {
				return fmt.Errorf("ld: in %s: %w", g.Name, err)
			}
			switch r.Type {
			case obj.RelAbs64:
				binary.LittleEndian.PutUint64(sect[p-sectBase:], uint64(int64(s)+r.Addend))
			case obj.RelJT32:
				// PIC jump-table entry: target - table base. Resolved here
				// and *never emitted*, per the paper's observation.
				binary.LittleEndian.PutUint32(sect[p-sectBase:], uint32(int64(s)+r.Addend-int64(base)))
			case obj.RelPC32:
				binary.LittleEndian.PutUint32(sect[p-sectBase:], uint32(int64(s)+r.Addend-int64(p)))
			default:
				return fmt.Errorf("ld: unsupported data reloc %d in %s", r.Type, g.Name)
			}
			if opts.EmitRelocs && !g.NoEmitRelocs {
				*relas = append(*relas, elfx.Rela{
					Off: p - sectBase, Type: r.Type, Sym: resolveAlias(r.Sym), Addend: r.Addend,
				})
			}
		}
		return nil
	}
	for _, g := range roList {
		if err := patchGlobal(g, rodataData, rodataBase, &roRelas); err != nil {
			return nil, err
		}
	}
	for _, g := range rwList {
		if err := patchGlobal(g, dataData, dataBase, &rwRelas); err != nil {
			return nil, err
		}
	}

	// GOT contents (with relocations kept under --emit-relocs, like
	// R_X86_64_GLOB_DAT, so a post-link optimizer can retarget them).
	gotData := make([]byte, gotEnd-gotBase)
	var gotRelas []elfx.Rela
	for _, t := range pltTargets {
		v, err := symValue(t)
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint64(gotData[gotAddr[t]-gotBase:], v)
		if opts.EmitRelocs {
			gotRelas = append(gotRelas, elfx.Rela{
				Off: gotAddr[t] - gotBase, Type: obj.RelAbs64, Sym: resolveAlias(t),
			})
		}
	}

	// Exception tables and CFI.
	var lsdaData []byte
	fdes := make([]cfi.FDE, 0, len(ordered))
	nLines := 0
	for _, f := range ordered {
		nLines += len(f.Lines)
	}
	lineTab := &dbg.Table{Entries: make([]dbg.Entry, 0, nLines)}
	for _, f := range ordered {
		base := funcAddr[f.Name]
		fde := cfi.FDE{Start: base, Len: uint32(len(f.Bytes)), Insts: f.CFI}
		if len(f.CallSites) > 0 {
			l := &cfi.LSDA{}
			for _, cs := range f.CallSites {
				l.CallSites = append(l.CallSites, cfi.CallSite{
					Start: cs.Start, Len: cs.Len,
					LandingPad: base + uint64(cs.LPOff), Action: cs.Action,
				})
			}
			var off uint32
			lsdaData, off = cfi.EncodeLSDA(lsdaData, l)
			fde.LSDA = uint64(off) + 1 // +1 so offset 0 is distinguishable; reader subtracts
		}
		fdes = append(fdes, fde)
		for _, ln := range f.Lines {
			lineTab.Add(base+uint64(ln.Off), ln.File, uint32(ln.Line))
		}
	}
	lineTab.Sort()

	// LSDA section address: after GOT.
	lsdaBase := align(gotEnd, 8)
	for i := range fdes {
		if fdes[i].LSDA != 0 {
			fdes[i].LSDA = lsdaBase + fdes[i].LSDA - 1
		}
	}
	frameData := cfi.EncodeFrames(fdes)

	// Assemble the ELF image.
	out := elfx.New()
	out.Entry = funcAddr["_start"]
	out.EmitRelocs = opts.EmitRelocs
	if pltSize > 0 {
		out.AddSection(&elfx.Section{
			Name: ".plt", Type: elfx.SHTProgbits,
			Flags: elfx.SHFAlloc | elfx.SHFExecinstr,
			Addr:  pltBase, Data: pltData, Addralign: 16,
		})
	}
	out.AddSection(&elfx.Section{
		Name: ".text", Type: elfx.SHTProgbits,
		Flags: elfx.SHFAlloc | elfx.SHFExecinstr,
		Addr:  textBase, Data: textData, Addralign: 16,
	})
	if len(rodataData) > 0 {
		out.AddSection(&elfx.Section{
			Name: ".rodata", Type: elfx.SHTProgbits, Flags: elfx.SHFAlloc,
			Addr: rodataBase, Data: rodataData, Addralign: 8,
		})
	}
	if len(dataData) > 0 {
		out.AddSection(&elfx.Section{
			Name: ".data", Type: elfx.SHTProgbits,
			Flags: elfx.SHFAlloc | elfx.SHFWrite,
			Addr:  dataBase, Data: dataData, Addralign: 8,
		})
	}
	if len(gotData) > 0 {
		out.AddSection(&elfx.Section{
			Name: ".got", Type: elfx.SHTProgbits,
			Flags: elfx.SHFAlloc | elfx.SHFWrite,
			Addr:  gotBase, Data: gotData, Addralign: 8,
		})
	}
	if len(lsdaData) > 0 {
		out.AddSection(&elfx.Section{
			Name: cfi.LSDASectionName, Type: elfx.SHTProgbits, Flags: elfx.SHFAlloc,
			Addr: lsdaBase, Data: lsdaData, Addralign: 8,
		})
	}
	out.AddSection(&elfx.Section{
		Name: cfi.FrameSectionName, Type: elfx.SHTProgbits,
		Data: frameData, Addralign: 8,
	})
	out.AddSection(&elfx.Section{
		Name: dbg.SectionName, Type: elfx.SHTProgbits,
		Data: lineTab.Encode(), Addralign: 8,
	})

	// Symbols.
	for _, f := range ordered {
		bind := elfx.STBLocal
		if f.Global {
			bind = elfx.STBGlobal
		}
		out.Symbols = append(out.Symbols, elfx.Symbol{
			Name: f.Name, Value: funcAddr[f.Name], Size: uint64(len(f.Bytes)),
			Type: elfx.STTFunc, Bind: bind, Section: ".text",
		})
	}
	// Sorted: the symbol table must not depend on map order.
	for _, folded := range slices.Sorted(maps.Keys(aliases)) {
		keptName := aliases[folded]
		out.Symbols = append(out.Symbols, elfx.Symbol{
			Name: folded, Value: funcAddr[keptName], Size: uint64(len(funcByName[keptName].Bytes)),
			Type: elfx.STTFunc, Bind: elfx.STBLocal, Section: ".text",
		})
	}
	for _, t := range pltTargets {
		out.Symbols = append(out.Symbols, elfx.Symbol{
			Name: t + "@plt", Value: pltStubAddr[t], Size: pltEntrySize,
			Type: elfx.STTFunc, Bind: elfx.STBLocal, Section: ".plt",
		})
	}
	for _, g := range globals {
		sect := ".rodata"
		if g.Writable {
			sect = ".data"
		}
		out.Symbols = append(out.Symbols, elfx.Symbol{
			Name: g.Name, Value: globalAddr[g.Name], Size: uint64(len(g.Data)),
			Type: elfx.STTObject, Bind: elfx.STBLocal, Section: sect,
		})
	}
	if opts.EmitRelocs {
		out.Relas[".text"] = textRelas
		if len(roRelas) > 0 {
			out.Relas[".rodata"] = roRelas
		}
		if len(rwRelas) > 0 {
			out.Relas[".data"] = rwRelas
		}
		if len(gotRelas) > 0 {
			out.Relas[".got"] = gotRelas
		}
	}
	return &Result{File: out, ICFFolded: folded, TextSize: textEnd - textBase}, nil
}

// orderFuncs applies the explicit ordering, keeping unlisted functions in
// input order afterwards.
func orderFuncs(funcs []*obj.Func, order []string) []*obj.Func {
	if len(order) == 0 {
		return funcs
	}
	byName := map[string]*obj.Func{}
	for _, f := range funcs {
		byName[f.Name] = f
	}
	var out []*obj.Func
	placed := map[string]bool{}
	for _, n := range order {
		if f, ok := byName[n]; ok && !placed[n] {
			out = append(out, f)
			placed[n] = true
		}
	}
	for _, f := range funcs {
		if !placed[f.Name] {
			out = append(out, f)
		}
	}
	return out
}
