package elfx

import (
	"encoding/binary"
	"testing"
)

// strAt is the per-name reader the string tables replaced, kept as
// FuzzRead's reference: a name is the image's bytes from the table's
// offset plus off up to the next NUL or the end of the image, and ""
// when that start lies outside the image.
func strAt(data []byte, tabOff uint64, off uint32) string {
	start := tabOff + uint64(off)
	if start >= uint64(len(data)) {
		return ""
	}
	end := start
	for end < uint64(len(data)) && data[end] != 0 {
		end++
	}
	return string(data[start:end])
}

// refNames reads, with strAt, the names of an image Read accepted: every
// section's by index, the names of the sections Read keeps in order, and
// each symbol's name and section name in table order.
func refNames(data []byte) (secs []string, syms []Symbol) {
	le := binary.LittleEndian
	shoff := le.Uint64(data[40:])
	shnum := uint64(le.Uint16(data[60:]))
	hdr := func(i uint64) []byte { return data[shoff+i*shdrSize:] }
	shstrOff := le.Uint64(hdr(uint64(le.Uint16(data[62:])))[24:])
	all := make([]string, shnum)
	for i := uint64(1); i < shnum; i++ {
		all[i] = strAt(data, shstrOff, le.Uint32(hdr(i)))
	}
	for i := uint64(1); i < shnum; i++ {
		h := hdr(i)
		switch le.Uint32(h[4:]) {
		case SHTSymtab:
			strOff := le.Uint64(hdr(uint64(le.Uint32(h[40:])))[24:])
			off, n := le.Uint64(h[24:]), le.Uint64(h[32:])/symSize
			for j := uint64(1); j < n; j++ {
				e := data[off+j*symSize:]
				s := Symbol{Name: strAt(data, strOff, le.Uint32(e))}
				switch shndx := uint64(le.Uint16(e[6:])); {
				case shndx == 0xFFF1:
					s.Section = "*ABS*"
				case shndx < shnum:
					s.Section = all[shndx]
				}
				syms = append(syms, s)
			}
		case SHTRela, SHTStrtab:
		default:
			secs = append(secs, all[i])
		}
	}
	return secs, syms
}

// truncStrtabs returns a copy of the image with every string table one
// byte shorter and the NUL it lost made an 'x', so that each table's last
// name runs past its end and on into the image.
func truncStrtabs(data []byte) []byte {
	out := append([]byte(nil), data...)
	le := binary.LittleEndian
	shoff, shnum := le.Uint64(out[40:]), uint64(le.Uint16(out[60:]))
	for i := uint64(1); i < shnum; i++ {
		h := out[shoff+i*shdrSize:]
		if le.Uint32(h[4:]) == SHTStrtab {
			off, size := le.Uint64(h[24:]), le.Uint64(h[32:])
			le.PutUint64(h[32:], size-1)
			out[off+size-1] = 'x'
		}
	}
	return out
}

// FuzzRead feeds arbitrary bytes to the ELF reader (must never panic)
// and, whenever an image parses, checks every section and symbol name
// against strAt's: a name cut from its table's one string must be the
// name read on its own, and a name the table does not hold NUL-terminated
// must be read past the table exactly as strAt reads it.
func FuzzRead(f *testing.F) {
	sample, err := sampleFile().Bytes()
	if err != nil {
		f.Fatal(err)
	}
	relocs := sampleFile()
	relocs.Relas[".text"] = []Rela{{Off: 1, Type: 1, Sym: "table", Addend: 4}}
	withRelocs, err := relocs.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	f.Add(withRelocs)
	f.Add(truncStrtabs(sample))
	f.Add(truncStrtabs(withRelocs))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(data)
		if err != nil {
			return // rejected inputs just must not panic
		}
		secs, syms := refNames(data)
		if len(g.Sections) != len(secs) || len(g.Symbols) != len(syms) {
			t.Fatalf("%d sections and %d symbols, want %d and %d",
				len(g.Sections), len(g.Symbols), len(secs), len(syms))
		}
		for i, s := range g.Sections {
			if s.Name != secs[i] {
				t.Errorf("section %d named %q, want %q", i, s.Name, secs[i])
			}
		}
		for i, s := range g.Symbols {
			if s.Name != syms[i].Name || s.Section != syms[i].Section {
				t.Errorf("symbol %d is %q in %q, want %q in %q",
					i, s.Name, s.Section, syms[i].Name, syms[i].Section)
			}
		}
	})
}
