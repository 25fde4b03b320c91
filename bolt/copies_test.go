package bolt

import (
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"gobolt/internal/bincheck"
	"gobolt/internal/cc"
	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/ld"
	"gobolt/internal/perf"
	"gobolt/internal/profile"
	"gobolt/internal/workload"
)

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation allocates on its own account.
var raceEnabled bool

// serializedInput builds spec's binary and an LBR profile of it, both
// serialized: the bytes a gobolt run starts from.
func serializedInput(t *testing.T, spec workload.Spec) (elf, fdata []byte) {
	t.Helper()
	f := linkSpec(t, spec)
	fd, _, err := perf.RecordFile(f, perf.DefaultMode(), 0)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return serialize(t, f, fd)
}

// staleInput is serializedInput's stale, non-LBR counterpart, the
// benchmark's clang-stale-nolbr recipe: a PC-sample profile, with CFG
// shapes, recorded on spec, and the next release of spec, whose entry
// blocks grew three instructions.
func staleInput(t *testing.T, spec workload.Spec) (elf, fdata []byte) {
	t.Helper()
	old := linkSpec(t, spec)
	fd, _, err := perf.RecordFile(old, perf.Mode{Event: perf.EventCycles, Period: 512}, 0)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	sess, err := OpenELF(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Analyze(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fd.Shapes, err = sess.Shapes(); err != nil {
		t.Fatal(err)
	}
	spec.EntryPadOps = 3
	return serialize(t, linkSpec(t, spec), fd)
}

// linkSpec compiles and links spec.
func linkSpec(t *testing.T, spec workload.Spec) *elfx.File {
	t.Helper()
	objs, err := cc.Compile(workload.Generate(spec), cc.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := ld.Link(objs, ld.Options{EmitRelocs: true, ICF: true})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return res.File
}

// serialize returns the bytes of f and fd.
func serialize(t *testing.T, f *elfx.File, fd *profile.Fdata) (elf, fdata []byte) {
	t.Helper()
	elf, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fd.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return elf, buf.Bytes()
}

// optimizeSession runs a session through profile, Optimize and WriteTo.
func optimizeSession(t *testing.T, sess *Session, fdata []byte, out io.Writer) {
	t.Helper()
	cx := context.Background()
	fd, err := profile.ParseData(cx, fdata, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.LoadProfile(cx, Fdata(fd)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Optimize(cx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.WriteTo(out); err != nil {
		t.Fatal(err)
	}
}

// TestInputSectionsUnchanged: Open and OpenReader parse the input where
// it was read, so the session's input sections are windows of that
// buffer. That is safe because no stage writes to them: optimizing and
// serializing leave every input section's bytes as they were.
func TestInputSectionsUnchanged(t *testing.T) {
	elf, fdata := serializedInput(t, workload.Tiny())
	path := filepath.Join(t.TempDir(), "in.elf")
	if err := os.WriteFile(path, elf, 0o644); err != nil {
		t.Fatal(err)
	}
	digest := func(s *Session) [sha256.Size]byte {
		h := sha256.New()
		for _, sec := range s.file.Sections {
			h.Write([]byte(sec.Name))
			h.Write(sec.Data)
		}
		return [sha256.Size]byte(h.Sum(nil))
	}
	for _, open := range []struct {
		name string
		open func() (*Session, error)
	}{
		{"Open", func() (*Session, error) { return Open(path, WithJobs(2)) }},
		{"OpenReader", func() (*Session, error) { return OpenReader(bytes.NewReader(elf), WithJobs(2)) }},
	} {
		t.Run(open.name, func(t *testing.T) {
			sess, err := open.open()
			if err != nil {
				t.Fatal(err)
			}
			before := digest(sess)
			optimizeSession(t, sess, fdata, io.Discard)
			if digest(sess) != before {
				t.Fatal("Optimize + WriteTo changed the session's input section bytes")
			}
		})
	}
}

// TestReportMetricsIsACopy: Report.Metrics is the counters as Optimize
// left them; a count the session's store takes later does not reach it.
func TestReportMetricsIsACopy(t *testing.T) {
	elf, fdata := serializedInput(t, workload.Tiny())
	sess := optimizedSession(t, elf, fdata)
	want := maps.Clone(sess.rep.Metrics)
	sess.bctx.CountStat(core.StatICFFolded, 1)
	if !maps.Equal(sess.rep.Metrics, want) {
		t.Errorf("report metrics changed after Optimize: %v, want %v", sess.rep.Metrics, want)
	}
	if got := sess.bctx.Stats["icf-folded"]; got != want["icf-folded"]+1 {
		t.Errorf("live icf-folded = %d, want %d", got, want["icf-folded"]+1)
	}
}

// TestOutputIsTheWrittenImage: the rewrite writes the output image once.
// Every section of Output that has data is a window of the buffer WriteTo
// writes, and WriteTo, WriteFile and VerifyOutput serialize nothing
// further: on a session's first call each allocates exactly what writing
// or checking those bytes allocates on its own.
func TestOutputIsTheWrittenImage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	elf, fdata := serializedInput(t, workload.Tiny())
	const runs = 2
	// firstCalls returns the allocations of call on sessions that have
	// not been written or verified yet: AllocsPerRun makes runs+1 calls,
	// each on a fresh session.
	firstCalls := func(call func(*Session)) float64 {
		sessions := make([]*Session, runs+1)
		for i := range sessions {
			sessions[i] = optimizedSession(t, elf, fdata)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			call(sessions[next])
			next++
		})
	}

	sess := optimizedSession(t, elf, fdata)
	var w lastWrite
	if _, err := sess.WriteTo(&w); err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(w.p)))
	hi := lo + uintptr(len(w.p))
	for _, sec := range sess.Output().Sections {
		if len(sec.Data) == 0 {
			continue
		}
		p := uintptr(unsafe.Pointer(unsafe.SliceData(sec.Data)))
		if p < lo || p+uintptr(len(sec.Data)) > hi {
			t.Errorf("section %s is not inside the written image", sec.Name)
		}
	}

	if n := firstCalls(func(s *Session) { s.WriteTo(io.Discard) }); n != 0 {
		t.Errorf("WriteTo allocated %v times", n)
	}
	path := filepath.Join(t.TempDir(), "out.bolt")
	alone := testing.AllocsPerRun(runs, func() { os.WriteFile(path, w.p, 0o755) })
	if n := firstCalls(func(s *Session) { s.WriteFile(path) }); n != alone {
		t.Errorf("WriteFile allocated %v times, writing the image alone %v", n, alone)
	}
	alone = testing.AllocsPerRun(runs, func() { bincheck.CheckJobs(w.p, 1) })
	if n := firstCalls(func(s *Session) { s.VerifyOutput() }); n != alone {
		t.Errorf("VerifyOutput allocated %v times, checking the image alone %v", n, alone)
	}
}

// optimizedSession opens elf with one worker and optimizes it with fdata.
func optimizedSession(t *testing.T, elf, fdata []byte) *Session {
	t.Helper()
	sess, err := OpenReader(bytes.NewReader(elf), WithJobs(1))
	if err != nil {
		t.Fatal(err)
	}
	cx := context.Background()
	fd, err := profile.ParseData(cx, fdata, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.LoadProfile(cx, Fdata(fd)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Optimize(cx); err != nil {
		t.Fatal(err)
	}
	return sess
}

// lastWrite keeps the buffer of its last Write, not a copy of it.
type lastWrite struct{ p []byte }

func (w *lastWrite) Write(p []byte) (int, error) {
	w.p = p
	return len(p), nil
}

// optimizeAllocBudget is what one serial optimize op of the proxygen
// preset with an LBR profile allocates, from serialized inputs to
// serialized output, plus 5 %. The measured figure is 13 943 544 bytes on
// go1.24 linux/amd64 and varies by a few hundred bytes between runs; it
// was 14 476 488 while every block carried a label string and 14 174 680
// while the fdata parser grew each chunk's records and copied them once
// more. The slack is
// coarse: it fails the 26.3 MB an op took while the kept input
// sections and the code sections each had a private copy ahead of the
// image, the 21.2 MB it took while an instruction was 64 bytes, the
// 19.1 MB it took while every block stored its predecessors and landing
// pads, the 17 988 472 bytes it took while an instruction was 48 bytes,
// the 16 631 208 it took while it was 40 and the 15 511 128 it took
// while it was 32, but one small copy (about +4 %) passes and is left to
// the benchmark's 1 % bound.
const optimizeAllocBudget = 13943544 * 105 / 100

// optimizeMallocBudget bounds the same op's allocation count: 2 677
// allocations measured on go1.24 linux/amd64, plus 5 %. It fails the
// 50 009 the op made while the loader and the emitter allocated each
// function's edge lists, CFI tables, code and relocations on their own,
// the 14 798 it made while the loader also carved predecessor and
// landing-pad lists, the 14 042 it made while the fdata parser made a
// string per record symbol and every function pass its own workers, the
// 8 302 it made while the loader allocated each function's blocks, block
// list and jump tables, the ELF reader each name and the emitter each
// cold symbol's name on their own, a return to one CFI-state table per
// function alone (+1 464), and the 2 881 it made while the fdata parser
// grew each chunk's records by append and interned names per chunk.
const optimizeMallocBudget = 2677 * 105 / 100

// staleAllocBudget and staleMallocBudget are the same budgets for one
// serial op of the proxygen preset's next release with a stale non-LBR
// profile (staleInput), which goes through stale matching and
// inference: 16 381 640 bytes and 2 947 allocations measured on
// go1.24 linux/amd64, plus 5 % each (16 683 672 bytes while every block
// carried a label string). The bytes figure is from before the fdata
// parser copied the profile body, shape lines included, into the one
// string its names are cut from; the op now allocates 16 584 008, inside
// the slack, and the budget is not raised for it. The bytes fail the 18 890 824 the op took while an instruction was
// 40 bytes and the 17 747 416 it took while it was 32. The count fails
// the 4 608 the op made while the fdata parser grew each chunk's records
// by append and interned names per chunk, the 21 643 the op
// made while stale matching built each function's shape, successor lists
// and eight maps, the applier grew each function's record list on its
// own and the fdata parser made each shape's block list on its own, and
// the 9 751 it made while the loader, the ELF reader and the emitter
// allocated per function, name and cold symbol as optimizeMallocBudget
// lists.
const (
	staleAllocBudget  = 16381640 * 105 / 100
	staleMallocBudget = 2947 * 105 / 100
)

// TestOptimizeAllocBudget holds the optimizer to what it allocates, the
// way the benchmark's optimize_alloc_mb_op and optimize_allocs_op measure
// it: total bytes allocated, and allocations made, by one op
// (OpenReader → ParseData → LoadProfile → Optimize → WriteTo), after a
// first op has warmed the process. One row per profile path: an LBR
// profile, and a stale non-LBR one.
func TestOptimizeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, row := range []struct {
		name          string
		input         func(*testing.T, workload.Spec) ([]byte, []byte)
		bytes, allocs uint64
	}{
		{"lbr", serializedInput, optimizeAllocBudget, optimizeMallocBudget},
		{"stale-nolbr", staleInput, staleAllocBudget, staleMallocBudget},
	} {
		t.Run(row.name, func(t *testing.T) {
			elf, fdata := row.input(t, workload.Proxygen())
			var out bytes.Buffer
			op := func() {
				sess, err := OpenReader(bytes.NewReader(elf), WithJobs(1))
				if err != nil {
					t.Fatal(err)
				}
				out.Reset()
				optimizeSession(t, sess, fdata, &out)
			}
			op()
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			op()
			runtime.ReadMemStats(&m1)
			if got := m1.TotalAlloc - m0.TotalAlloc; got > row.bytes {
				t.Errorf("one optimize op allocated %d bytes, budget %d", got, row.bytes)
			} else {
				t.Logf("one optimize op allocated %d bytes, budget %d", got, row.bytes)
			}
			if got := m1.Mallocs - m0.Mallocs; got > row.allocs {
				t.Errorf("one optimize op made %d allocations, budget %d", got, row.allocs)
			} else {
				t.Logf("one optimize op made %d allocations, budget %d", got, row.allocs)
			}
		})
	}
}
