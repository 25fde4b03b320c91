package elfx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"strings"
)

// maxNobits bounds the zero-fill (SHT_NOBITS) bytes Read will
// materialize, summed over the image's sections: the bytes are allocated,
// so a section table must not be able to claim more of them than a
// process can sensibly back.
const maxNobits = 1 << 28

// Read parses an ELF64 image previously produced by Bytes (or any simple
// statically linked ELF64 executable using the same subset of features).
// The File owns copies of the section bytes, so data stays the caller's.
func Read(data []byte) (*File, error) { return parse(data, true) }

// ReadInPlace is Read without the copies: every section's Data is a
// window of data, which the caller hands over and must not write to
// afterwards. Each window is capped at its own length, so an append to
// one section reallocates instead of running into the next.
func ReadInPlace(data []byte) (*File, error) { return parse(data, false) }

// parse is Read, copying the section payloads out of data when copies is
// set and aliasing them otherwise.
func parse(data []byte, copies bool) (*File, error) {
	if len(data) < ehdrSize {
		return nil, fmt.Errorf("elfx: file too short")
	}
	if string(data[:4]) != "\x7fELF" || data[4] != 2 || data[5] != 1 {
		return nil, fmt.Errorf("elfx: not a little-endian ELF64 file")
	}
	f := New()
	f.Entry = binary.LittleEndian.Uint64(data[24:])
	shoff := binary.LittleEndian.Uint64(data[40:])
	shentsize := uint64(binary.LittleEndian.Uint16(data[58:]))
	shnum := uint64(binary.LittleEndian.Uint16(data[60:]))
	shstrndx := uint64(binary.LittleEndian.Uint16(data[62:]))
	if shentsize != shdrSize {
		return nil, fmt.Errorf("elfx: unexpected shentsize %d", shentsize)
	}
	// inFile reports whether [off, off+size) lies inside the image; the
	// form does not overflow on a hostile offset or size.
	inFile := func(off, size uint64) bool {
		return off <= uint64(len(data)) && size <= uint64(len(data))-off
	}
	if !inFile(shoff, shnum*shdrSize) {
		return nil, fmt.Errorf("elfx: section header table out of range")
	}

	type rawShdr struct {
		nameOff, typ           uint32
		flags, addr, off, size uint64
		link, info             uint32
		addralign, entsize     uint64
	}
	hdrs := make([]rawShdr, shnum)
	for i := uint64(0); i < shnum; i++ {
		h := data[shoff+i*shdrSize:]
		hdrs[i] = rawShdr{
			nameOff:   binary.LittleEndian.Uint32(h[0:]),
			typ:       binary.LittleEndian.Uint32(h[4:]),
			flags:     binary.LittleEndian.Uint64(h[8:]),
			addr:      binary.LittleEndian.Uint64(h[16:]),
			off:       binary.LittleEndian.Uint64(h[24:]),
			size:      binary.LittleEndian.Uint64(h[32:]),
			link:      binary.LittleEndian.Uint32(h[40:]),
			info:      binary.LittleEndian.Uint32(h[44:]),
			addralign: binary.LittleEndian.Uint64(h[48:]),
			entsize:   binary.LittleEndian.Uint64(h[56:]),
		}
	}
	if shstrndx >= shnum {
		return nil, fmt.Errorf("elfx: bad shstrndx")
	}
	var zeroFill uint64 // bytes the SHT_NOBITS sections claim so far
	for _, h := range hdrs[1:] {
		if h.typ == SHTNobits {
			if h.size > maxNobits-zeroFill {
				return nil, fmt.Errorf("elfx: implausible zero-fill: sections claim more than %#x bytes", maxNobits)
			}
			zeroFill += h.size
		}
	}
	// A string table is converted to one string the first time a name is
	// read from it, and each of its names is a substring of that. A name
	// the table does not hold NUL-terminated (its offset lies past the
	// table's end, it runs off the end, or the table lies outside the
	// image) is read from the image instead, up to the next NUL.
	tabs := make([]struct {
		s    string
		read bool
	}, shnum)
	nameAt := func(tab uint64, off uint32) string {
		t, h := &tabs[tab], hdrs[tab]
		if !t.read {
			t.read = true
			if inFile(h.off, h.size) {
				t.s = string(data[h.off : h.off+h.size])
			}
		}
		if uint64(off) < uint64(len(t.s)) {
			if n := strings.IndexByte(t.s[off:], 0); n >= 0 {
				return t.s[off : int(off)+n]
			}
		}
		return cstring(data, h.off+uint64(off))
	}

	names := make([]string, shnum)
	secByIdx := make([]*Section, shnum)
	for i := uint64(1); i < shnum; i++ {
		h := hdrs[i]
		names[i] = nameAt(shstrndx, h.nameOff)
		var payload []byte
		if h.typ != SHTNobits {
			if !inFile(h.off, h.size) {
				return nil, fmt.Errorf("elfx: section %s out of range", names[i])
			}
			payload = data[h.off : h.off+h.size : h.off+h.size]
			if copies {
				payload = append([]byte(nil), payload...)
			}
		} else {
			payload = make([]byte, h.size)
		}
		s := &Section{
			Name: names[i], Type: h.typ, Flags: h.flags, Addr: h.addr,
			Data: payload, Link: h.link, Info: h.info,
			Addralign: h.addralign, Entsize: h.entsize,
		}
		secByIdx[i] = s
		switch h.typ {
		case SHTSymtab, SHTRela, SHTStrtab:
			// Metadata sections are re-synthesized on write; keep the
			// payload out of Sections but remember symtab/rela below.
		default:
			f.Sections = append(f.Sections, s)
		}
	}

	// Symbols.
	var symNames []string
	for i := uint64(1); i < shnum; i++ {
		if hdrs[i].typ != SHTSymtab {
			continue
		}
		if uint64(hdrs[i].link) >= shnum {
			return nil, fmt.Errorf("elfx: symbol table links to section %d of %d", hdrs[i].link, shnum)
		}
		n := hdrs[i].size / symSize
		symNames = make([]string, n)
		f.Symbols = slices.Grow(f.Symbols, int(max(n, 1)-1))
		for j := uint64(1); j < n; j++ {
			e := data[hdrs[i].off+j*symSize:]
			nameOff := binary.LittleEndian.Uint32(e[0:])
			info := e[4]
			shndx := binary.LittleEndian.Uint16(e[6:])
			val := binary.LittleEndian.Uint64(e[8:])
			size := binary.LittleEndian.Uint64(e[16:])
			name := nameAt(uint64(hdrs[i].link), nameOff)
			symNames[j] = name
			var secName string
			switch {
			case shndx == 0:
				secName = ""
			case shndx == 0xFFF1:
				secName = "*ABS*"
			case uint64(shndx) < shnum:
				secName = names[shndx]
			}
			f.Symbols = append(f.Symbols, Symbol{
				Name: name, Value: val, Size: size,
				Type: info & 0xF, Bind: info >> 4, Section: secName,
			})
		}
	}

	// Relocations.
	for i := uint64(1); i < shnum; i++ {
		if hdrs[i].typ != SHTRela {
			continue
		}
		targetName := strings.TrimPrefix(names[i], ".rela")
		target := f.Section(targetName)
		if target == nil {
			continue
		}
		n := hdrs[i].size / relaSize
		f.Relas[targetName] = slices.Grow(f.Relas[targetName], int(n))
		for j := uint64(0); j < n; j++ {
			e := data[hdrs[i].off+j*relaSize:]
			off := binary.LittleEndian.Uint64(e[0:])
			info := binary.LittleEndian.Uint64(e[8:])
			addend := int64(binary.LittleEndian.Uint64(e[16:]))
			symIdx := info >> 32
			var symName string
			if symNames != nil && symIdx < uint64(len(symNames)) {
				symName = symNames[symIdx]
			}
			f.Relas[targetName] = append(f.Relas[targetName], Rela{
				Off: off - target.Addr, Type: uint32(info), Sym: symName, Addend: addend,
			})
		}
		f.EmitRelocs = true
	}
	return f, nil
}

// cstring returns the NUL-terminated string at data[start:], cut at the
// end of data; "" when start lies outside data.
func cstring(data []byte, start uint64) string {
	if start >= uint64(len(data)) {
		return ""
	}
	n := bytes.IndexByte(data[start:], 0)
	if n < 0 {
		n = len(data[start:])
	}
	return string(data[start : start+uint64(n)])
}

// ReadFile reads and parses the ELF file at path.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadInPlace(data)
}

// WriteFile serializes f and writes it to path with execute permission.
func (f *File) WriteFile(path string) error {
	data, err := f.Bytes()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o755)
}
