package elfx

import (
	"encoding/binary"
	"fmt"
	"sort"
)

const (
	ehdrSize  = 64
	phdrSize  = 56
	shdrSize  = 64
	symSize   = 24
	relaSize  = 24
	pageAlign = 0x1000
)

// stringTable builds an ELF string table incrementally.
type stringTable struct {
	data []byte
	off  map[string]uint32
}

// newStringTable returns a table sized for n strings of size bytes in all.
func newStringTable(n, size int) *stringTable {
	t := &stringTable{data: make([]byte, 1, 1+size+n), off: make(map[string]uint32, n+1)}
	t.off[""] = 0
	return t
}

func (t *stringTable) add(s string) uint32 {
	if o, ok := t.off[s]; ok {
		return o
	}
	o := uint32(len(t.data))
	t.data = append(t.data, s...)
	t.data = append(t.data, 0)
	t.off[s] = o
	return o
}

type segment struct {
	vaddr, size, off uint64
	flags            uint32
}

// Bytes serializes the image to a complete ELF64 executable in one
// buffer of its final size: layout places every section, then write fills
// the buffer. A section declared by size (Data nil, Len set) is placed by
// Len and left zero. Bytes leaves f's sections as they are.
func (f *File) Bytes() ([]byte, error) {
	l, err := f.layout()
	if err != nil {
		return nil, err
	}
	return l.write(), nil
}

// Image serializes f as Bytes does and then makes the image f's storage:
// every section's Data becomes its window of the image, capped so that an
// append cannot run into the next section. A section declared by size
// gets a zeroed window, for the caller to fill after Image returns.
func (f *File) Image() ([]byte, error) {
	l, err := f.layout()
	if err != nil {
		return nil, err
	}
	img := l.write()
	for i, s := range l.order {
		if s.Type != SHTNobits {
			s.Data = img[l.off[i] : l.off[i]+s.Size() : l.off[i]+s.Size()]
		}
	}
	return img, nil
}

// fileLayout is where everything of a File goes in its image. order is
// the section header table's order: allocatable sections by address, the
// other sections, then the synthesized .symtab, .strtab, .rela.* and
// .shstrtab. off[i] is order[i]'s file offset.
type fileLayout struct {
	f        *File
	order    []*Section
	off      []uint64
	segs     []segment
	shoff    uint64
	shstr    *stringTable
	strtab   uint32 // section index of .strtab
	shstrndx uint32
	numLocal uint32 // .symtab entries up to the last local, null symbol included
}

// layout places ehdr, phdrs, then each allocatable section at a file
// offset congruent to its vaddr modulo the page size (so PT_LOAD entries
// are loader-correct), then non-alloc sections, symtab/strtab, optional
// .rela.* sections, .shstrtab, and the section header table. It builds
// the synthesized sections' data; no other section's data is read.
func (f *File) layout() (*fileLayout, error) {
	// Order allocatable sections by address.
	var alloc, other []*Section
	for _, s := range f.Sections {
		if s.Flags&SHFAlloc != 0 {
			alloc = append(alloc, s)
		} else {
			other = append(other, s)
		}
	}
	sort.Slice(alloc, func(i, j int) bool { return alloc[i].Addr < alloc[j].Addr })
	for i := 1; i < len(alloc); i++ {
		p, q := alloc[i-1], alloc[i]
		if p.Addr+p.Size() > q.Addr {
			return nil, fmt.Errorf("elfx: sections %s and %s overlap", p.Name, q.Name)
		}
	}
	l := &fileLayout{f: f, shstr: newStringTable(0, 0)}
	l.order = append(append(l.order, alloc...), other...)
	sectIndex := map[string]uint32{"": 0} // index 0 is the null section
	for i, s := range l.order {
		sectIndex[s.Name] = uint32(i + 1)
	}

	// Symbol table: local symbols precede globals, each in input order.
	namesLen := 0
	for _, s := range f.Symbols {
		namesLen += len(s.Name)
	}
	symstr := newStringTable(len(f.Symbols), namesLen)
	var symIndexOf map[string]uint32 // only relocation sections look symbols up
	if f.EmitRelocs {
		symIndexOf = make(map[string]uint32, len(f.Symbols))
	}
	symData := make([]byte, symSize*(len(f.Symbols)+1)) // null symbol first
	n := uint32(1)
	for _, local := range []bool{true, false} {
		for _, s := range f.Symbols {
			if (s.Bind == STBLocal) != local {
				continue
			}
			var shndx uint16
			switch s.Section {
			case "":
				shndx = 0
			case "*ABS*":
				shndx = 0xFFF1
			default:
				idx, ok := sectIndex[s.Section]
				if !ok {
					return nil, fmt.Errorf("elfx: symbol %s references unknown section %s", s.Name, s.Section)
				}
				shndx = uint16(idx)
			}
			e := symData[n*symSize:]
			binary.LittleEndian.PutUint32(e[0:], symstr.add(s.Name))
			e[4] = s.Bind<<4 | s.Type&0xF
			binary.LittleEndian.PutUint16(e[6:], shndx)
			binary.LittleEndian.PutUint64(e[8:], s.Value)
			binary.LittleEndian.PutUint64(e[16:], s.Size)
			if symIndexOf != nil {
				symIndexOf[s.Name] = n
			}
			n++
		}
		if local {
			l.numLocal = n
		}
	}

	// Synthesize metadata sections.
	meta := []*Section{
		{Name: ".symtab", Type: SHTSymtab, Data: symData, Entsize: symSize, Addralign: 8},
		{Name: ".strtab", Type: SHTStrtab, Data: symstr.data, Addralign: 1},
	}
	var relaSects []*Section
	if f.EmitRelocs {
		var names []string
		for name := range f.Relas {
			if len(f.Relas[name]) > 0 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			rl := f.Relas[name]
			sort.Slice(rl, func(i, j int) bool { return rl[i].Off < rl[j].Off })
			data := make([]byte, 0, len(rl)*relaSize)
			target := f.Section(name)
			if target == nil {
				return nil, fmt.Errorf("elfx: relocations for unknown section %s", name)
			}
			for _, r := range rl {
				var e [relaSize]byte
				binary.LittleEndian.PutUint64(e[0:], target.Addr+r.Off)
				si, ok := symIndexOf[r.Sym]
				if !ok {
					return nil, fmt.Errorf("elfx: relocation references unknown symbol %q", r.Sym)
				}
				binary.LittleEndian.PutUint64(e[8:], uint64(si)<<32|uint64(r.Type))
				binary.LittleEndian.PutUint64(e[16:], uint64(r.Addend))
				data = append(data, e[:]...)
			}
			relaSects = append(relaSects, &Section{
				Name: ".rela" + name, Type: SHTRela, Data: data,
				Entsize: relaSize, Addralign: 8,
				Info: sectIndex[name], // Link is set below, to .symtab's index
			})
		}
	}
	meta = append(meta, relaSects...)
	shstrtab := &Section{Name: ".shstrtab", Type: SHTStrtab, Addralign: 1}
	meta = append(meta, shstrtab)
	l.order = append(l.order, meta...)
	for i, s := range l.order {
		sectIndex[s.Name] = uint32(i + 1)
	}
	for _, rs := range relaSects {
		rs.Link = sectIndex[".symtab"]
	}
	l.strtab, l.shstrndx = sectIndex[".strtab"], sectIndex[".shstrtab"]
	for _, s := range l.order {
		l.shstr.add(s.Name)
	}
	shstrtab.Data = l.shstr.data

	// Program headers: merge adjacent alloc sections with equal flags.
	// Each segment's file offset is that of its first section.
	first := make([]int, 0, len(alloc)) // index in alloc of each segment's first section
	for i, s := range alloc {
		fl := uint32(4) // R
		if s.Flags&SHFWrite != 0 {
			fl |= 2
		}
		if s.Flags&SHFExecinstr != 0 {
			fl |= 1
		}
		if n := len(l.segs); n > 0 && l.segs[n-1].flags == fl &&
			s.Addr >= l.segs[n-1].vaddr && s.Addr-l.segs[n-1].vaddr < 1<<30 {
			end := s.Addr + s.Size()
			if end > l.segs[n-1].vaddr+l.segs[n-1].size {
				l.segs[n-1].size = end - l.segs[n-1].vaddr
			}
			continue
		}
		l.segs = append(l.segs, segment{vaddr: s.Addr, size: s.Size(), flags: fl})
		first = append(first, i)
	}

	// Lay out the file.
	l.off = make([]uint64, len(l.order))
	pos := uint64(ehdrSize + phdrSize*len(l.segs))
	for i, s := range alloc {
		// Congruence: off % page == vaddr % page.
		want := s.Addr % pageAlign
		if pos%pageAlign != want {
			pos += (pageAlign + want - pos%pageAlign) % pageAlign
		}
		l.off[i] = pos
		pos += s.Size()
	}
	for i, fi := range first {
		l.segs[i].off = l.off[fi]
	}
	for i := len(alloc); i < len(l.order); i++ {
		s := l.order[i]
		align := max(s.Addralign, 1)
		if pos%align != 0 {
			pos += align - pos%align
		}
		l.off[i] = pos
		if s.Type != SHTNobits {
			pos += s.Size()
		}
	}
	if pos%8 != 0 {
		pos += 8 - pos%8
	}
	l.shoff = pos
	return l, nil
}

// write allocates the image and writes the headers and every section's
// data into it.
func (l *fileLayout) write() []byte {
	f, order := l.f, l.order
	out := make([]byte, l.shoff+uint64(shdrSize*(len(order)+1)))

	// ELF header.
	copy(out, []byte{0x7F, 'E', 'L', 'F', 2, 1, 1, 0})
	binary.LittleEndian.PutUint16(out[16:], 2)  // ET_EXEC
	binary.LittleEndian.PutUint16(out[18:], 62) // EM_X86_64
	binary.LittleEndian.PutUint32(out[20:], 1)
	binary.LittleEndian.PutUint64(out[24:], f.Entry)
	binary.LittleEndian.PutUint64(out[32:], ehdrSize) // phoff
	binary.LittleEndian.PutUint64(out[40:], l.shoff)
	binary.LittleEndian.PutUint16(out[52:], ehdrSize)
	binary.LittleEndian.PutUint16(out[54:], phdrSize)
	binary.LittleEndian.PutUint16(out[56:], uint16(len(l.segs)))
	binary.LittleEndian.PutUint16(out[58:], shdrSize)
	binary.LittleEndian.PutUint16(out[60:], uint16(len(order)+1))
	binary.LittleEndian.PutUint16(out[62:], uint16(l.shstrndx))

	// Program headers.
	for i, sg := range l.segs {
		p := out[ehdrSize+i*phdrSize:]
		binary.LittleEndian.PutUint32(p[0:], 1) // PT_LOAD
		binary.LittleEndian.PutUint32(p[4:], sg.flags)
		binary.LittleEndian.PutUint64(p[8:], sg.off)
		binary.LittleEndian.PutUint64(p[16:], sg.vaddr)
		binary.LittleEndian.PutUint64(p[24:], sg.vaddr)
		binary.LittleEndian.PutUint64(p[32:], sg.size)
		binary.LittleEndian.PutUint64(p[40:], sg.size)
		binary.LittleEndian.PutUint64(p[48:], pageAlign)
	}

	// Section headers (index 0 stays zero), then the payloads.
	for i, s := range order {
		h := out[l.shoff+uint64((i+1)*shdrSize):]
		binary.LittleEndian.PutUint32(h[0:], l.shstr.add(s.Name))
		binary.LittleEndian.PutUint32(h[4:], s.Type)
		binary.LittleEndian.PutUint64(h[8:], s.Flags)
		binary.LittleEndian.PutUint64(h[16:], s.Addr)
		binary.LittleEndian.PutUint64(h[24:], l.off[i])
		binary.LittleEndian.PutUint64(h[32:], s.Size())
		link, info := s.Link, s.Info
		if s.Name == ".symtab" {
			link, info = l.strtab, l.numLocal
		}
		binary.LittleEndian.PutUint32(h[40:], link)
		binary.LittleEndian.PutUint32(h[44:], info)
		binary.LittleEndian.PutUint64(h[48:], max(s.Addralign, 1))
		binary.LittleEndian.PutUint64(h[56:], s.Entsize)
	}
	for i, s := range order {
		if s.Type != SHTNobits {
			copy(out[l.off[i]:], s.Data)
		}
	}
	return out
}
