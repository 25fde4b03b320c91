// Package profile defines the sample-based profile data model shared by
// the sampler (internal/perf), the optimizer (internal/core), and the
// link-time function-ordering baseline.
//
// The on-disk format mirrors BOLT's fdata files: one aggregated branch
// record per line, symbolized as (function, offset) pairs, plus a non-LBR
// variant holding plain PC sample counts (paper §5).
package profile

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"gobolt/internal/hfsort"
	"gobolt/internal/par"
)

// Loc is a symbolized code location.
type Loc struct {
	Sym string
	Off uint64
}

func (l Loc) String() string {
	// Manual append formatting: String sits on the profile ingest and
	// diagnostics hot paths, where fmt.Sprintf dominated the allocation
	// profile.
	b := make([]byte, 0, len(l.Sym)+19)
	b = append(b, l.Sym...)
	b = append(b, '+', '0', 'x')
	b = strconv.AppendUint(b, l.Off, 16)
	return string(b)
}

// Branch is one aggregated taken-branch record (LBR mode).
type Branch struct {
	From     Loc
	To       Loc
	Mispreds uint64
	Count    uint64
}

// Sample is one aggregated PC sample (non-LBR mode).
type Sample struct {
	At    Loc
	Count uint64
}

// BlockShape describes one basic block of the profiled binary's CFG: its
// offset within the function, a structural hash of its opcode sequence,
// and the indices of its successor blocks. Shapes ride in the profile
// header (format v2) so a consumer looking at a *different* version of
// the binary can re-anchor stale (function, offset) records by matching
// blocks structurally instead of dropping them (arXiv:2401.17168).
type BlockShape struct {
	Off   uint64 // block start offset within the function
	Hash  uint64 // opcode-sequence hash (see internal/stale)
	Succs []int  // successor block indices, CFG edge order
}

// FuncShape is the block-level shape of one profiled function.
type FuncShape struct {
	Blocks []BlockShape // original layout (address) order
}

// Fdata is a complete profile.
type Fdata struct {
	LBR      bool
	Event    string
	Branches []Branch
	Samples  []Sample

	// Shapes carries the CFG shapes of the binary the profile was
	// collected on, keyed by function name. Empty for v1 profiles.
	Shapes map[string]FuncShape
}

// Builder aggregates raw events into an Fdata.
type Builder struct {
	lbr      bool
	event    string
	branches map[[2]Loc]*Branch
	samples  map[Loc]uint64
}

// NewBuilder returns an aggregator for the given mode.
func NewBuilder(lbr bool, event string) *Builder {
	return &Builder{
		lbr:      lbr,
		event:    event,
		branches: map[[2]Loc]*Branch{},
		samples:  map[Loc]uint64{},
	}
}

// AddBranchN accumulates an already-aggregated branch record.
func (b *Builder) AddBranchN(from, to Loc, count, mispreds uint64) {
	key := [2]Loc{from, to}
	e := b.branches[key]
	if e == nil {
		e = &Branch{From: from, To: to}
		b.branches[key] = e
	}
	e.Count += count
	e.Mispreds += mispreds
}

// AddSampleN accumulates an aggregated PC sample count.
func (b *Builder) AddSampleN(at Loc, count uint64) { b.samples[at] += count }

// Build freezes the aggregation into a deterministic Fdata.
func (b *Builder) Build() *Fdata {
	f := &Fdata{LBR: b.lbr, Event: b.event}
	for _, e := range b.branches {
		f.Branches = append(f.Branches, *e)
	}
	sort.Slice(f.Branches, func(i, j int) bool {
		x, y := f.Branches[i], f.Branches[j]
		if x.From != y.From {
			return locLess(x.From, y.From)
		}
		return locLess(x.To, y.To)
	})
	for at, c := range b.samples {
		f.Samples = append(f.Samples, Sample{At: at, Count: c})
	}
	sort.Slice(f.Samples, func(i, j int) bool { return locLess(f.Samples[i].At, f.Samples[j].At) })
	return f
}

func locLess(a, b Loc) bool {
	if a.Sym != b.Sym {
		return a.Sym < b.Sym
	}
	return a.Off < b.Off
}

// TotalBranchCount sums branch counts.
func (f *Fdata) TotalBranchCount() uint64 {
	var n uint64
	for _, b := range f.Branches {
		n += b.Count
	}
	return n
}

// Write serializes the profile in fdata-like text form. Profiles without
// shapes use the v1 header; profiles carrying shapes use v2, which v1
// readers reject cleanly (the version field is checked before records).
//
// Record lines are built with manual append formatting into one reused
// buffer — Write runs inside merge/round-trip loops where per-line
// fmt.Fprintf was a measurable share of ingest wall time.
func (f *Fdata) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	mode := "lbr"
	if !f.LBR {
		mode = "nolbr"
	}
	version := "v1"
	if len(f.Shapes) > 0 {
		version = "v2"
	}
	buf := make([]byte, 0, 256)
	buf = append(buf, "boltprofile "...)
	buf = append(buf, version...)
	buf = append(buf, ' ')
	buf = append(buf, mode...)
	buf = append(buf, " event="...)
	buf = append(buf, f.Event...)
	buf = append(buf, '\n')
	bw.Write(buf)
	if len(f.Shapes) > 0 {
		names := make([]string, 0, len(f.Shapes))
		for name := range f.Shapes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			sh := f.Shapes[name]
			// Format: s <func> <nblocks> then one `b <off> <hash> <succs>`
			// line per block (succs comma separated, "-" when none).
			buf = append(buf[:0], 's', ' ')
			buf = appendEscaped(buf, name)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(len(sh.Blocks)), 10)
			buf = append(buf, '\n')
			bw.Write(buf)
			for _, b := range sh.Blocks {
				buf = append(buf[:0], 'b', ' ')
				buf = strconv.AppendUint(buf, b.Off, 16)
				buf = append(buf, ' ')
				buf = strconv.AppendUint(buf, b.Hash, 16)
				buf = append(buf, ' ')
				buf = appendSuccs(buf, b.Succs)
				buf = append(buf, '\n')
				bw.Write(buf)
			}
		}
	}
	for _, b := range f.Branches {
		// Format: 1 <from-sym> <from-off> 1 <to-sym> <to-off> <mispreds> <count>
		buf = append(buf[:0], '1', ' ')
		buf = appendEscaped(buf, b.From.Sym)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, b.From.Off, 16)
		buf = append(buf, ' ', '1', ' ')
		buf = appendEscaped(buf, b.To.Sym)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, b.To.Off, 16)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, b.Mispreds, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, b.Count, 10)
		buf = append(buf, '\n')
		bw.Write(buf)
	}
	for _, s := range f.Samples {
		buf = append(buf[:0], '2', ' ')
		buf = appendEscaped(buf, s.At.Sym)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, s.At.Off, 16)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, s.Count, 10)
		buf = append(buf, '\n')
		bw.Write(buf)
	}
	return bw.Flush()
}

// Parse reads a profile written by Write. The input is slurped and
// handed to ParseData, which parses large profiles in parallel chunks;
// cancelling cx stops the chunk pool promptly (nil cx = background).
func Parse(cx context.Context, r io.Reader) (*Fdata, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseData(cx, data, 0)
}

// parallelParseMin is the body size below which auto-sized parsing stays
// serial: chunk bookkeeping costs more than it saves on tiny inputs.
const parallelParseMin = 1 << 16

// ParseData parses an fdata profile from memory, splitting the body into
// line-aligned chunks parsed concurrently by up to jobs workers (jobs <=
// 0 selects GOMAXPROCS, dropping to one worker for small inputs). The
// result is byte-identical on Write to a serial parse for any chunk
// count: chunk boundaries never split a multi-line `s`/`b` shape group,
// and each chunk's records land in its own window of the result's record
// slices, in input order. Errors carry absolute line numbers regardless
// of chunking, and the reported error is always the one serial parsing
// would hit first (chunks cover disjoint line ranges in order, and the
// pool returns the lowest-chunk error). Cancelling cx stops the pool at
// the next chunk claim; a nil cx parses without a cancellation point.
//
// The body is copied into one string, and every record and shape name is
// a substring of it; only a name written with escapes gets a string of
// its own. Any name kept from the result keeps that whole string alive.
func ParseData(cx context.Context, data []byte, jobs int) (*Fdata, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("profile: empty input")
	}
	headerLine := data
	var body []byte
	if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
		headerLine, body = data[:nl], data[nl+1:]
	}
	headerLine = bytes.TrimSuffix(headerLine, []byte{'\r'})
	header := strings.Fields(string(headerLine))
	if len(header) < 3 || header[0] != "boltprofile" ||
		(header[1] != "v1" && header[1] != "v2") {
		return nil, fmt.Errorf("profile: bad header %q", string(headerLine))
	}
	f := &Fdata{LBR: header[2] == "lbr"}
	for _, h := range header[3:] {
		if v, ok := strings.CutPrefix(h, "event="); ok {
			f.Event = v
		}
	}
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
		if len(body) < parallelParseMin {
			jobs = 1
		}
	}
	chunks := splitChunks(string(body), jobs)
	if len(chunks) == 0 {
		return f, nil
	}
	// Absolute starting line number of each chunk: line 1 is the header,
	// the body starts on line 2. Chunk i+1's start line doubles as the
	// line a shape left open at the end of chunk i is reported on.
	starts := make([]int, len(chunks)+1)
	starts[0] = 2
	for i, c := range chunks {
		n := strings.Count(c, "\n")
		if len(c) > 0 && c[len(c)-1] != '\n' {
			n++ // final line without trailing newline
		}
		starts[i+1] = starts[i] + n
	}
	// Count each chunk's records by the rule parseChunk classifies lines
	// by, then cut each chunk its exact window of one slice per record
	// kind: the parse writes every record in its final place.
	results := make([]chunkData, len(chunks))
	if _, err := par.For(cx, len(chunks), jobs, func(_, i int) error {
		results[i].nb, results[i].ns = countRecords(chunks[i])
		return nil
	}); err != nil {
		return nil, err
	}
	var nb, ns int
	for i := range results {
		nb += results[i].nb
		ns += results[i].ns
	}
	// Leave record slices nil when empty: parse results are compared
	// with reflect.DeepEqual in round-trip tests and a serial parse of
	// an empty body yields nil, not a zero-length allocation.
	if nb > 0 {
		f.Branches = make([]Branch, nb)
	}
	if ns > 0 {
		f.Samples = make([]Sample, ns)
	}
	nb, ns = 0, 0
	for i := range results {
		r := &results[i]
		r.branches = f.Branches[nb : nb+r.nb : nb+r.nb]
		r.samples = f.Samples[ns : ns+r.ns : ns+r.ns]
		nb, ns = nb+r.nb, ns+r.ns
	}
	if _, err := par.For(cx, len(chunks), jobs, func(_, i int) error {
		return parseChunk(chunks[i], starts[i], starts[i+1], i == len(chunks)-1, &results[i])
	}); err != nil {
		return nil, err
	}
	for i := range results {
		for _, sh := range results[i].shapes {
			if f.Shapes == nil {
				f.Shapes = map[string]FuncShape{}
			}
			f.Shapes[sh.name] = sh.sh // last wins, as in serial order
		}
	}
	return f, nil
}

// splitChunks cuts body into at most n line-aligned pieces of roughly
// equal byte size. A cut never lands inside a shape group: after
// advancing to the next line boundary the cut keeps advancing past
// continuation lines (blank lines — legal inside shape groups — and `b`
// block records), so every chunk starts at a line that serial parsing
// treats as a fresh top-level record.
func splitChunks(body string, n int) []string {
	if len(body) == 0 {
		return nil
	}
	if n <= 1 || len(body) < 2*n {
		return []string{body}
	}
	chunks := make([]string, 0, n)
	target := len(body) / n
	start := 0
	for len(chunks) < n-1 {
		cut := start + target
		if cut >= len(body) {
			break
		}
		j := strings.IndexByte(body[cut:], '\n')
		if j < 0 {
			break
		}
		cut += j + 1
		for cut < len(body) {
			line, rest, _ := strings.Cut(body[cut:], "\n")
			if !isContinuationLine(line) {
				break
			}
			cut = len(body) - len(rest)
		}
		if cut >= len(body) {
			break
		}
		chunks = append(chunks, body[start:cut])
		start = cut
	}
	return append(chunks, body[start:])
}

// isContinuationLine reports whether a line cannot begin a chunk: blank
// lines may sit inside shape groups and `b` records extend the shape
// opened by a preceding `s` line.
func isContinuationLine(line string) bool {
	first, _ := nextField(line)
	return first == "" || first == "b"
}

// recordKind is the record type a line's first field names: the field's
// one byte, or 0 for a blank line or a longer first field (which the
// parser rejects as an unknown record).
func recordKind(first string) byte {
	if len(first) == 1 {
		return first[0]
	}
	return 0
}

// countRecords counts a chunk's branch (`1`) and sample (`2`) lines by
// the same first-field rule parseChunk classifies them by, so the window
// it sizes holds exactly the records the parse writes.
func countRecords(chunk string) (nb, ns int) {
	for chunk != "" {
		var line string
		line, chunk, _ = strings.Cut(chunk, "\n")
		first, _ := nextField(line)
		switch recordKind(first) {
		case '1':
			nb++
		case '2':
			ns++
		}
	}
	return nb, ns
}

// chunkData is one chunk's share of the parse. branches and samples are
// the chunk's windows of the Fdata's record slices, nb and ns records
// long, which parseChunk fills in input order; shapes are merged into the
// Fdata's map in chunk order by ParseData.
type chunkData struct {
	nb, ns   int
	branches []Branch
	samples  []Sample
	shapes   []namedShape
}

type namedShape struct {
	name string
	sh   FuncShape
}

// parseChunk parses the record lines of one chunk. baseLine is the
// absolute line number of the chunk's first line; boundaryLine is the
// absolute line number of the next chunk's first line, where a shape
// left open at the chunk end would be diagnosed by a serial parse (the
// next chunk is guaranteed to start with a non-blank, non-`b` line).
// Record and shape names are substrings of body, unescaped only where
// written with escapes.
func parseChunk(body string, baseLine, boundaryLine int, last bool, out *chunkData) error {
	lineNo := baseLine - 1
	fields := make([]string, 0, 8) // reused across lines; a record has at most 8
	var curShape FuncShape         // the shape being read, while open
	open := false
	var curName string
	var curBlocks int
	var succSlab []int // successor indices of this chunk's shapes
	// Their blocks: one slab holds every `b` line a chunk written by Write
	// has.
	blockSlab := make([]BlockShape, 0, strings.Count(body, "\nb "))
	var nb, ns int // records written to out's windows
	for rest := body; rest != ""; {
		lineNo++
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		fields = splitFields(line, fields)
		if len(fields) == 0 {
			continue
		}
		rec := recordKind(fields[0])
		if rec != 'b' && open && len(curShape.Blocks) != curBlocks {
			return fmt.Errorf("profile: line %d: shape has %d blocks, declared %d",
				lineNo, len(curShape.Blocks), curBlocks)
		}
		switch rec {
		case 's':
			if len(fields) != 3 {
				return fmt.Errorf("profile: line %d: want 3 fields, got %d", lineNo, len(fields))
			}
			name := unescape(fields[1])
			n64, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return fmt.Errorf("profile: line %d: %w", lineNo, err)
			}
			n := int(n64)
			if n > 1<<20 {
				return fmt.Errorf("profile: line %d: implausible block count %d", lineNo, n)
			}
			sh := FuncShape{Blocks: cut(&blockSlab, n)}
			curShape, curName, curBlocks, open = sh, name, n, true
			if n == 0 {
				out.shapes = append(out.shapes, namedShape{curName, sh})
				open = false
			}
		case 'b':
			if !open {
				return fmt.Errorf("profile: line %d: block shape outside function shape", lineNo)
			}
			if len(fields) != 4 {
				return fmt.Errorf("profile: line %d: want 4 fields, got %d", lineNo, len(fields))
			}
			var b BlockShape
			var err error
			if b.Off, err = strconv.ParseUint(fields[1], 16, 64); err != nil {
				return fmt.Errorf("profile: line %d: %w", lineNo, err)
			}
			if b.Hash, err = strconv.ParseUint(fields[2], 16, 64); err != nil {
				return fmt.Errorf("profile: line %d: %w", lineNo, err)
			}
			if b.Succs, err = parseSuccs(fields[3], &succSlab); err != nil {
				return fmt.Errorf("profile: line %d: %w", lineNo, err)
			}
			curShape.Blocks = append(curShape.Blocks, b)
			if len(curShape.Blocks) == curBlocks {
				out.shapes = append(out.shapes, namedShape{curName, curShape})
				open = false
			}
		case '1':
			if len(fields) != 8 {
				return fmt.Errorf("profile: line %d: want 8 fields, got %d", lineNo, len(fields))
			}
			b := &out.branches[nb]
			nb++
			var err error
			b.From.Sym = unescape(fields[1])
			b.To.Sym = unescape(fields[4])
			if b.From.Off, err = strconv.ParseUint(fields[2], 16, 64); err != nil {
				return fmt.Errorf("profile: line %d: %w", lineNo, err)
			}
			if b.To.Off, err = strconv.ParseUint(fields[5], 16, 64); err != nil {
				return fmt.Errorf("profile: line %d: %w", lineNo, err)
			}
			if b.Mispreds, err = strconv.ParseUint(fields[6], 10, 64); err != nil {
				return fmt.Errorf("profile: line %d: %w", lineNo, err)
			}
			if b.Count, err = strconv.ParseUint(fields[7], 10, 64); err != nil {
				return fmt.Errorf("profile: line %d: %w", lineNo, err)
			}
		case '2':
			if len(fields) != 4 {
				return fmt.Errorf("profile: line %d: want 4 fields, got %d", lineNo, len(fields))
			}
			s := &out.samples[ns]
			ns++
			var err error
			s.At.Sym = unescape(fields[1])
			if s.At.Off, err = strconv.ParseUint(fields[2], 16, 64); err != nil {
				return fmt.Errorf("profile: line %d: %w", lineNo, err)
			}
			if s.Count, err = strconv.ParseUint(fields[3], 10, 64); err != nil {
				return fmt.Errorf("profile: line %d: %w", lineNo, err)
			}
		default:
			return fmt.Errorf("profile: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if open {
		if last {
			return fmt.Errorf("profile: truncated shape for %q (%d of %d blocks)",
				curName, len(curShape.Blocks), curBlocks)
		}
		// The next chunk starts with a top-level line, which serial
		// parsing would flag against this under-filled shape.
		return fmt.Errorf("profile: line %d: shape has %d blocks, declared %d",
			boundaryLine, len(curShape.Blocks), curBlocks)
	}
	return nil
}

// splitFields splits a line on Unicode whitespace into dst (reused), as
// strings.Fields does, without allocating the fields.
func splitFields(line string, dst []string) []string {
	dst = dst[:0]
	for {
		var f string
		if f, line = nextField(line); f == "" {
			return dst
		}
		dst = append(dst, f)
	}
}

// nextField returns line's first whitespace-separated field ("" when
// there is none) and what follows it.
func nextField(line string) (field, rest string) {
	i := 0
	for i < len(line) {
		sp, size := spaceAt(line, i)
		if !sp {
			break
		}
		i += size
	}
	j := i
	for j < len(line) {
		sp, size := spaceAt(line, j)
		if sp {
			break
		}
		j += size
	}
	return line[i:j], line[j:]
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// spaceAt reports whether line[i:] opens with Unicode whitespace, and the
// width of the rune there. ASCII is looked up; only a byte past it costs
// a rune decode (U+0085 and U+00A0 are the non-ASCII spaces names meet).
func spaceAt(line string, i int) (bool, int) {
	if c := line[i]; c < utf8.RuneSelf {
		return asciiSpace[c], 1
	}
	r, size := utf8.DecodeRuneInString(line[i:])
	return unicode.IsSpace(r), size
}

// appendSuccs renders successor indices as "0,2,5" ("-" when none).
func appendSuccs(dst []byte, succs []int) []byte {
	if len(succs) == 0 {
		return append(dst, '-')
	}
	for i, s := range succs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(s), 10)
	}
	return dst
}

// succSlabLen is how many successor indices one slab holds: shape
// parsing allocates one slab per this many indices instead of a split
// and a slice per block.
const succSlabLen = 4096

// cut returns an empty window of n elements cut from *slab, which a
// full slab is replaced to hold, never regrown, so earlier windows stay
// valid; its cap is n, so appending to one cannot reach the next.
func cut[T any](slab *[]T, n int) []T {
	if *slab == nil || cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(n, succSlabLen))
	}
	w := (*slab)[len(*slab) : len(*slab) : len(*slab)+n]
	*slab = (*slab)[:len(*slab)+n]
	return w
}

// parseSuccs parses a block's successor list ("0,2,5", "-" when none),
// scanning the commas in place, into a window cut from *slab.
func parseSuccs(s string, slab *[]int) ([]int, error) {
	if s == "-" {
		return nil, nil
	}
	out := cut(slab, strings.Count(s, ",")+1)
	for rest, more := s, true; more; {
		var tok string
		tok, rest, more = strings.Cut(rest, ",")
		v, plain := 0, len(tok) > 0 && len(tok) <= 9
		for _, c := range tok {
			if c < '0' || c > '9' {
				plain = false
				break
			}
			v = v*10 + int(c-'0')
		}
		if !plain {
			// Signs, overflow, empty fields: strconv decides, as it did
			// when every field went through it.
			var err error
			if v, err = strconv.Atoi(tok); err != nil || v < 0 {
				return nil, fmt.Errorf("bad successor list %q", s)
			}
		}
		out = append(out, v)
	}
	return out, nil
}

// appendEscaped appends a symbol made safe for the whitespace-separated
// fdata format. Empty names become the __empty__ sentinel; the escape
// character itself, control/whitespace bytes, all non-ASCII bytes (Parse
// splits on Unicode whitespace, so multi-byte spaces like U+00A0 must
// not pass through raw), and a symbol *literally* named __empty__ are
// hex-escaped so every name survives a Write→Parse round trip (the old
// space-only scheme corrupted symbols containing a literal `\x20` or the
// sentinel).
func appendEscaped(dst []byte, s string) []byte {
	if s == "" {
		return append(dst, "__empty__"...)
	}
	if s == "__empty__" {
		return append(dst, `\x5f_empty__`...)
	}
	needs := false
	for i := 0; i < len(s); i++ {
		if escNeeded(s[i]) {
			needs = true
			break
		}
	}
	if !needs {
		return append(dst, s...)
	}
	const hexdig = "0123456789abcdef"
	for i := 0; i < len(s); i++ {
		c := s[i]
		if escNeeded(c) {
			dst = append(dst, '\\', 'x', hexdig[c>>4], hexdig[c&0xf])
		} else {
			dst = append(dst, c)
		}
	}
	return dst
}

func escNeeded(c byte) bool { return c <= ' ' || c >= 0x7F || c == '\\' }

// unescape decodes escape's output: the sentinel and \xNN sequences.
// Malformed sequences pass through verbatim (garbage in, garbage out, but
// never a panic).
func unescape(s string) string {
	if s == "__empty__" {
		return ""
	}
	if !strings.Contains(s, `\x`) {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); {
		if s[i] == '\\' && i+3 < len(s) && s[i+1] == 'x' {
			if hi, ok1 := hexVal(s[i+2]); ok1 {
				if lo, ok2 := hexVal(s[i+3]); ok2 {
					sb.WriteByte(hi<<4 | lo)
					i += 4
					continue
				}
			}
		}
		sb.WriteByte(s[i])
		i++
	}
	return sb.String()
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Merge aggregates N profiles (shards of the same logical run, or runs of
// the same binary) into one deterministic profile: branch and sample
// counts sum, shapes are taken from the first shard that carries them.
// All shards must agree on the LBR/non-LBR mode and sampling event, and
// shards carrying *conflicting* shapes for the same function are
// rejected — they were recorded on different builds, and merging their
// records under one shape set would make stale matching silently anchor
// counts to the wrong blocks.
func Merge(fds []*Fdata) (*Fdata, error) {
	if len(fds) == 0 {
		return nil, fmt.Errorf("profile: nothing to merge")
	}
	event := ""
	for _, fd := range fds {
		if fd.LBR != fds[0].LBR {
			return nil, fmt.Errorf("profile: cannot merge LBR and non-LBR shards")
		}
		if event == "" {
			event = fd.Event
		} else if fd.Event != "" && fd.Event != event {
			return nil, fmt.Errorf("profile: cannot merge shards of different events (%q vs %q)", event, fd.Event)
		}
	}
	b := NewBuilder(fds[0].LBR, event)
	var shapes map[string]FuncShape
	for _, fd := range fds {
		for _, br := range fd.Branches {
			b.AddBranchN(br.From, br.To, br.Count, br.Mispreds)
		}
		for _, s := range fd.Samples {
			b.AddSampleN(s.At, s.Count)
		}
		for name, sh := range fd.Shapes {
			if shapes == nil {
				shapes = map[string]FuncShape{}
			}
			prev, ok := shapes[name]
			if !ok {
				shapes[name] = sh
				continue
			}
			if !shapesCompatible(prev, sh) {
				return nil, fmt.Errorf("profile: shards carry conflicting shapes for %q (recorded on different builds)", name)
			}
		}
	}
	out := b.Build()
	out.Shapes = shapes
	return out, nil
}

// shapesCompatible reports whether two shapes describe the same CFG
// (same blocks, offsets, hashes, successor lists).
func shapesCompatible(a, b FuncShape) bool {
	if len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i := range a.Blocks {
		x, y := a.Blocks[i], b.Blocks[i]
		if x.Off != y.Off || x.Hash != y.Hash || len(x.Succs) != len(y.Succs) {
			return false
		}
		for k := range x.Succs {
			if x.Succs[k] != y.Succs[k] {
				return false
			}
		}
	}
	return true
}

// BuildCallGraph extracts the weighted call graph HFSort orders at link
// time (§5.3); Size is left to the caller. In LBR mode, branch records
// landing at function entry (offset 0) from a *different* function are
// calls, and every function a record leaves is a node. In non-LBR mode,
// every sampled function is a node weighted by its samples, and there are
// no edges: a sample does not say where its function was called from.
func BuildCallGraph(f *Fdata) *hfsort.Graph {
	g := &hfsort.Graph{}
	index := map[string]int{}
	node := func(name string) int {
		i, ok := index[name]
		if !ok {
			i = g.N
			index[name] = i
			g.N++
			g.Weight = append(g.Weight, 0)
			g.Names = append(g.Names, name)
		}
		return i
	}
	if f.LBR {
		for _, b := range f.Branches {
			from := node(b.From.Sym)
			if b.To.Off == 0 && b.From.Sym != b.To.Sym && b.To.Sym != "" {
				to := node(b.To.Sym)
				g.Edges = append(g.Edges, hfsort.Edge{From: from, To: to, Weight: b.Count})
				g.Weight[to] += b.Count
			}
		}
		return g
	}
	for _, s := range f.Samples {
		g.Weight[node(s.At.Sym)] += s.Count
	}
	return g
}
