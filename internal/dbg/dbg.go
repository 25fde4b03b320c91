// Package dbg implements the toolchain's debug line table: a mapping from
// code addresses to source file/line, stored in a ".debug_line" section.
// gobolt reads it to annotate CFG dumps with source origins (paper Fig 4,
// Fig 10) and rewrites it after moving code (-update-debug-sections).
package dbg

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Entry maps the code at [Addr, nextEntry.Addr) to File:Line.
type Entry struct {
	Addr uint64
	File uint32 // index into Table.Files
	Line uint32
}

// Table is a complete line table.
type Table struct {
	Files   []string
	Entries []Entry // sorted by Addr

	// fileIdx maps a name to its first index in Files[:indexed];
	// FileIndex catches it up with names appended since.
	fileIdx map[string]uint32
	indexed int
}

// SectionName is where the table lives in linked binaries.
const SectionName = ".debug_line"

// FileIndex interns a file name and returns the first index it has in
// Files.
func (t *Table) FileIndex(name string) uint32 {
	if t.fileIdx == nil {
		t.fileIdx = make(map[string]uint32, len(t.Files))
	}
	for ; t.indexed < len(t.Files); t.indexed++ {
		if _, ok := t.fileIdx[t.Files[t.indexed]]; !ok {
			t.fileIdx[t.Files[t.indexed]] = uint32(t.indexed)
		}
	}
	if i, ok := t.fileIdx[name]; ok {
		return i
	}
	t.Files = append(t.Files, name)
	return uint32(len(t.Files) - 1)
}

// Add appends an entry (call in any order; Sort before Encode/Lookup).
func (t *Table) Add(addr uint64, file string, line uint32) {
	t.Entries = append(t.Entries, Entry{Addr: addr, File: t.FileIndex(file), Line: line})
}

// Sort orders entries by address and drops consecutive duplicates.
func (t *Table) Sort() {
	sort.Slice(t.Entries, func(i, j int) bool { return t.Entries[i].Addr < t.Entries[j].Addr })
	out := t.Entries[:0]
	for _, e := range t.Entries {
		if n := len(out); n > 0 && out[n-1].File == e.File && out[n-1].Line == e.Line {
			continue
		} else if n > 0 && out[n-1].Addr == e.Addr {
			out[n-1] = e
			continue
		}
		out = append(out, e)
	}
	t.Entries = out
}

// Lookup returns the source position covering addr.
func (t *Table) Lookup(addr uint64) (file string, line uint32, ok bool) {
	i, ok := t.LookupEntry(addr)
	if !ok {
		return "", 0, false
	}
	e := t.Entries[i]
	return t.Files[e.File], e.Line, true
}

// LookupEntry returns the index in Entries of the entry covering addr,
// for callers that keep the position instead of the strings. An entry
// naming a file the table does not have counts as no entry.
func (t *Table) LookupEntry(addr uint64) (int, bool) {
	i := sort.Search(len(t.Entries), func(i int) bool { return t.Entries[i].Addr > addr })
	if i == 0 || int(t.Entries[i-1].File) >= len(t.Files) {
		return 0, false
	}
	return i - 1, true
}

// Encode serializes the table.
func (t *Table) Encode() []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(t.Files)))
	for _, f := range t.Files {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f)))
		buf = append(buf, f...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Entries)))
	for _, e := range t.Entries {
		buf = binary.LittleEndian.AppendUint64(buf, e.Addr)
		buf = binary.LittleEndian.AppendUint32(buf, e.File)
		buf = binary.LittleEndian.AppendUint32(buf, e.Line)
	}
	return buf
}

// Decode parses a table produced by Encode.
func Decode(data []byte) (*Table, error) {
	t := &Table{}
	if len(data) < 4 {
		return nil, fmt.Errorf("dbg: truncated header")
	}
	nf := binary.LittleEndian.Uint32(data)
	p := 4
	for i := uint32(0); i < nf; i++ {
		if p+4 > len(data) {
			return nil, fmt.Errorf("dbg: truncated file table")
		}
		l := int(binary.LittleEndian.Uint32(data[p:]))
		p += 4
		if p+l > len(data) {
			return nil, fmt.Errorf("dbg: truncated file name")
		}
		t.Files = append(t.Files, string(data[p:p+l]))
		p += l
	}
	if p+4 > len(data) {
		return nil, fmt.Errorf("dbg: truncated entry count")
	}
	ne := binary.LittleEndian.Uint32(data[p:])
	p += 4
	for i := uint32(0); i < ne; i++ {
		if p+16 > len(data) {
			return nil, fmt.Errorf("dbg: truncated entries")
		}
		t.Entries = append(t.Entries, Entry{
			Addr: binary.LittleEndian.Uint64(data[p:]),
			File: binary.LittleEndian.Uint32(data[p+8:]),
			Line: binary.LittleEndian.Uint32(data[p+12:]),
		})
		p += 16
	}
	return t, nil
}
