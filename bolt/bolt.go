// Package bolt is the public library API for the gobolt post-link
// optimizer: the one way to drive the paper's Figure 3 pipeline (read
// profile → disassemble/CFG → optimize → rewrite) from Go code. The
// command-line tools (cmd/gobolt, cmd/perf2bolt, cmd/vmrun), every
// example, and the experiment harness are thin adapters over this
// package.
//
// # Stages
//
// A Session moves through four stages, strictly in order:
//
//	Open / OpenReader / OpenELF   read the input ELF executable
//	LoadProfile(cx, sources...)   attach sample data (optional, one-shot)
//	Optimize(cx)                  run the Table 1 pipeline + emission (one-shot)
//	WriteFile / WriteTo           serialize the optimized binary (repeatable)
//
// Analyze(cx) is an optional intermediate stage that builds the CFGs and
// applies the profile without optimizing — enough for the report-only
// entry points (DynoStats, BadLayoutReport, PrintCFG, Shapes). Optimize
// calls it implicitly. Analyze is idempotent; LoadProfile and Optimize
// are one-shot: calling LoadProfile twice, after Analyze, or Optimize
// twice is an error rather than a silent re-run.
//
// Every stage taking a context.Context honors cancellation promptly: the
// parallel phases (loader disassembly+CFG, function passes, code
// emission) stop claiming work as soon as the context is done and the
// stage returns the context's error.
//
// # Profile sources
//
// Where the profile comes from is orthogonal to the pipeline: a
// ProfileSource can be an fdata file (FdataFile), an in-memory
// *profile.Fdata (Fdata), the merge of N shards from parallel runs
// (MergeShards), or a profile sampled on an already-BOLTed binary that
// must be translated back to input coordinates through its .bolt.bat
// section (SampledOn, which auto-detects the table). Passing several
// sources to LoadProfile merges them.
//
// Library code never calls os.Exit and never prints; all failures are
// returned errors and all results live in the Report.
package bolt

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"os"
	"time"

	"gobolt/internal/core"
	"gobolt/internal/elfx"
	"gobolt/internal/obsv"
	"gobolt/internal/passes"
	"gobolt/internal/profile"
)

// Session is one run of the optimizer over one input binary. It is not
// safe for concurrent use; the parallelism knob is Options.Jobs, not
// concurrent sessions over the same Session value.
type Session struct {
	input     string // path or descriptive name, for reports
	inputSHA  string // sha256 of the serialized input image
	inputSize int
	file      *elfx.File
	opts      core.Options

	fd          *profile.Fdata
	profileDesc string

	bctx *core.BinaryContext
	res  *core.RewriteResult
	rep  *Report

	profiled  bool
	analyzed  bool
	optimized bool
	// broken marks a session whose pipeline failed (or was cancelled)
	// mid-flight: the CFGs may be partially transformed, so re-running
	// would not reproduce a clean run.
	broken bool
}

// Open reads the input executable from a file path.
func Open(path string, opts ...Option) (*Session, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bolt: open %s: %w", path, err)
	}
	f, err := elfx.ReadInPlace(data)
	if err != nil {
		return nil, fmt.Errorf("bolt: open %s: %w", path, err)
	}
	return newSession(path, f, data, opts), nil
}

// OpenReader reads the input executable from a stream (for example a
// pipe or an in-memory buffer).
func OpenReader(r io.Reader, opts ...Option) (*Session, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("bolt: read input: %w", err)
	}
	f, err := elfx.ReadInPlace(data)
	if err != nil {
		return nil, fmt.Errorf("bolt: parse input: %w", err)
	}
	return newSession("<reader>", f, data, opts), nil
}

// readAll is io.ReadAll with the buffer allocated once at its final size
// when the reader can say how much is left — in-memory readers through
// Len, files through Seek — instead of doubling its way past a
// multi-megabyte image.
func readAll(r io.Reader) ([]byte, error) {
	left := int64(-1)
	switch v := r.(type) {
	case interface{ Len() int }:
		left = int64(v.Len())
	case io.Seeker:
		if cur, err := v.Seek(0, io.SeekCurrent); err == nil {
			if end, err := v.Seek(0, io.SeekEnd); err == nil {
				left = end - cur
			}
			if _, err := v.Seek(cur, io.SeekStart); err != nil {
				return nil, err
			}
		}
	}
	if left < 0 {
		return io.ReadAll(r)
	}
	// ReadFrom wants MinRead spare bytes before the read that reports EOF.
	buf := bytes.NewBuffer(make([]byte, 0, left+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// OpenELF wraps an already-loaded ELF image — the entry point for
// toolchain code that holds an *elfx.File (a linker result, a previous
// session's output) and wants to optimize it without a serialization
// round trip. The file is used in place and must not be mutated by the
// caller while the session is live.
func OpenELF(f *elfx.File, opts ...Option) (*Session, error) {
	if f == nil {
		return nil, fmt.Errorf("bolt: OpenELF: nil file")
	}
	return newSession("<memory>", f, nil, opts), nil
}

// newSession starts a session on f. image is the serialized input when
// the caller read one (nil for OpenELF, which has to serialize f to
// fingerprint it).
func newSession(input string, f *elfx.File, image []byte, opts []Option) *Session {
	o := core.DefaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	s := &Session{input: input, file: f, opts: o}
	// Fingerprint the input image now, before any stage mutates the
	// file in place; Report.InputSHA256 identifies the exact binary a
	// run report describes.
	if image == nil {
		// An image that does not serialize has no fingerprint; the report
		// leaves both fields empty.
		image, _ = f.Bytes()
	}
	if image != nil {
		sum := sha256.Sum256(image)
		s.inputSHA, s.inputSize = hex.EncodeToString(sum[:]), len(image)
	}
	return s
}

// LoadProfile loads and attaches sample data. It is one-shot and must
// run before Analyze/Optimize; several sources are merged as shards
// (profile.Merge semantics). With no sources it is a no-op, so optional
// "-data" style plumbing does not need a branch at the call site.
func (s *Session) LoadProfile(cx context.Context, sources ...ProfileSource) error {
	if len(sources) == 0 {
		return nil
	}
	if s.profiled {
		return fmt.Errorf("bolt: LoadProfile is one-shot (profile already loaded from %s)", s.profileDesc)
	}
	if s.analyzed {
		return fmt.Errorf("bolt: LoadProfile must precede Analyze/Optimize")
	}
	src := sources[0]
	if len(sources) > 1 {
		src = MergeShards(sources...)
	}
	loadStart := time.Now()
	fd, err := src.Load(cx)
	if err != nil {
		return fmt.Errorf("bolt: load profile (%s): %w", src.Describe(), err)
	}
	// Trace-only phase span: profile parsing happens before the binary
	// context exists, so it has no PassTiming row, but it still shows up
	// on the trace timeline.
	s.opts.Trace.Phase("profile:load", loadStart, time.Since(loadStart), 1)
	s.fd, s.profileDesc, s.profiled = fd, src.Describe(), true
	return nil
}

// Profile returns the loaded (merged, translated) profile, or nil.
func (s *Session) Profile() *profile.Fdata { return s.fd }

// Analyze builds the binary context — function discovery, disassembly,
// CFG construction — and applies the loaded profile. It is idempotent
// and implicit in Optimize; call it directly only for the report-only
// entry points (DynoStats, BadLayoutReport, PrintCFG, Shapes, Functions).
func (s *Session) Analyze(cx context.Context) error {
	if s.analyzed {
		return nil
	}
	bctx, err := core.NewContext(cx, s.file, s.opts)
	if err != nil {
		return err
	}
	if s.fd != nil {
		if err := bctx.ApplyProfile(cx, s.fd); err != nil {
			return err
		}
	}
	s.bctx, s.analyzed = bctx, true
	return nil
}

// Optimize runs the Table 1 pass pipeline and emits the rewritten
// binary. One-shot: the CFGs are mutated in place, so re-optimizing
// requires a fresh Session — and a failed or cancelled Optimize leaves
// the session unusable for the same reason (the pipeline may have
// partially transformed the CFGs). On success the Report carries the
// counts, stats, dyno comparison, and per-phase timings; the output is
// retrieved with WriteFile, WriteTo, or Output.
func (s *Session) Optimize(cx context.Context) (*Report, error) {
	if s.optimized {
		return nil, fmt.Errorf("bolt: Optimize is one-shot; open a new Session to re-optimize")
	}
	if s.broken {
		return nil, fmt.Errorf("bolt: session unusable after a failed or cancelled Optimize; open a new Session")
	}
	if err := s.Analyze(cx); err != nil {
		s.broken = true
		return nil, err
	}
	var dyno *Dyno
	if s.opts.DynoStats {
		dyno = &Dyno{Before: s.bctx.CollectDynoStats()}
	}
	pm := core.NewPassManager(s.opts.Jobs)
	if err := pm.Run(cx, s.bctx, passes.BuildPipeline(s.opts)); err != nil {
		s.broken = true
		return nil, err
	}
	if dyno != nil {
		dyno.After = s.bctx.CollectDynoStats()
	}
	res, err := s.bctx.Rewrite(cx)
	if err != nil {
		s.broken = true
		return nil, err
	}
	s.res, s.optimized = res, true
	s.rep = s.buildReport(dyno)
	return s.rep, nil
}

// Output returns the optimized ELF image, or nil before Optimize. Its
// sections are windows of the bytes WriteFile and WriteTo write, so treat
// them as read-only.
func (s *Session) Output() *elfx.File {
	if s.res == nil {
		return nil
	}
	return s.res.File
}

// image returns the serialized optimized binary, which the rewrite wrote:
// WriteFile, WriteTo and VerifyOutput hand out, and check, the same
// bytes.
func (s *Session) image(what string) ([]byte, error) {
	if s.res == nil {
		return nil, fmt.Errorf("bolt: %s before Optimize", what)
	}
	return s.res.Image, nil
}

// WriteFile serializes the optimized binary to path. Requires a
// successful Optimize; repeatable.
func (s *Session) WriteFile(path string) error {
	data, err := s.image("WriteFile")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o755)
}

// WriteTo serializes the optimized binary to w. Requires a successful
// Optimize; repeatable.
func (s *Session) WriteTo(w io.Writer) (int64, error) {
	data, err := s.image("WriteTo")
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

// requireAnalyzed guards the report-only accessors. A broken session
// (failed or cancelled Optimize) is rejected too: its CFGs may be
// partially transformed, so shapes, stats, and dumps would describe a
// state that never corresponds to any binary.
func (s *Session) requireAnalyzed(what string) error {
	if s.broken {
		return fmt.Errorf("bolt: %s on a session whose Optimize failed or was cancelled; open a new Session", what)
	}
	if !s.analyzed {
		return fmt.Errorf("bolt: %s requires Analyze (or Optimize) first", what)
	}
	return nil
}

// DynoStats collects the paper's dynamic instruction statistics for the
// current CFG state: pre-pipeline when called after Analyze,
// post-pipeline after Optimize.
func (s *Session) DynoStats() (core.DynoStats, error) {
	if err := s.requireAnalyzed("DynoStats"); err != nil {
		return core.DynoStats{}, err
	}
	return s.bctx.CollectDynoStats(), nil
}

// Stats exposes the pipeline's counters (profile matching, per-pass
// work). The map is live — treat it as read-only; Report.Metrics is the
// stable snapshot taken when Optimize finished.
func (s *Session) Stats() (map[string]int64, error) {
	if err := s.requireAnalyzed("Stats"); err != nil {
		return nil, err
	}
	return s.bctx.Stats, nil
}

// Functions returns the discovered functions in address order (after
// Analyze). Callers may inspect CFGs and profile annotations but must
// not mutate them.
func (s *Session) Functions() ([]*core.BinaryFunction, error) {
	if err := s.requireAnalyzed("Functions"); err != nil {
		return nil, err
	}
	return s.bctx.Funcs, nil
}

// Function returns the named function after Analyze (aliases resolve to
// their canonical function), or nil if unknown.
func (s *Session) Function(name string) (*core.BinaryFunction, error) {
	if err := s.requireAnalyzed("Function"); err != nil {
		return nil, err
	}
	return s.bctx.ByName[name], nil
}

// HottestFunctions returns the n most executed functions (after
// Analyze with a profile loaded).
func (s *Session) HottestFunctions(n int) ([]*core.BinaryFunction, error) {
	if err := s.requireAnalyzed("HottestFunctions"); err != nil {
		return nil, err
	}
	return s.bctx.HottestFunctions(n), nil
}

// PrintCFG writes the Figure 4-style CFG dump of the named function.
func (s *Session) PrintCFG(w io.Writer, name string) error {
	if err := s.requireAnalyzed("PrintCFG"); err != nil {
		return err
	}
	fn := s.bctx.ByName[name]
	if fn == nil {
		return fmt.Errorf("bolt: no function %q", name)
	}
	s.bctx.PrintCFG(w, fn)
	return nil
}

// BadLayoutReport renders the -report-bad-layout analysis (cold blocks
// interleaved with hot ones), limited to the worst `limit` functions.
func (s *Session) BadLayoutReport(limit int) (string, error) {
	if err := s.requireAnalyzed("BadLayoutReport"); err != nil {
		return "", err
	}
	return s.bctx.BadLayoutReport(limit), nil
}

// FlowAccuracy reports the count-weighted flow-equation consistency of
// the applied profile before and after the profile:infer stage (1.0 =
// every block's count equals its out-flow). With minimum-cost-flow
// inference active (see core.Options.InferFlow) the after value is 1.0
// by construction. Requires a profile and Analyze.
func (s *Session) FlowAccuracy() (before, after float64, err error) {
	if err := s.requireAnalyzed("FlowAccuracy"); err != nil {
		return 0, 0, err
	}
	if s.fd == nil {
		return 0, 0, fmt.Errorf("bolt: FlowAccuracy requires a loaded profile")
	}
	return s.bctx.FlowAccBefore, s.bctx.FlowAccAfter, nil
}

// Shapes computes the per-function CFG shapes of the input binary — the
// v2-profile payload that makes stale matching possible (vmrun -record
// embeds them).
func (s *Session) Shapes() (map[string]profile.FuncShape, error) {
	if err := s.requireAnalyzed("Shapes"); err != nil {
		return nil, err
	}
	return core.ComputeShapes(s.bctx), nil
}

// PipelineNames lists the pass pipeline (paper Table 1) the given
// options select, in execution order — gobolt's -print-pipeline.
func PipelineNames(opts ...Option) []string {
	o := core.DefaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	var names []string
	for _, p := range passes.BuildPipeline(o) {
		names = append(names, p.Name())
	}
	return names
}

// buildReport assembles the run record once, after the last phase row
// is closed, so nothing here (the occupancy derivation included) counts
// against a phase wall.
func (s *Session) buildReport(dyno *Dyno) *Report {
	rep := &Report{
		SchemaVersion: ReportSchemaVersion,
		Input:         s.input,
		InputSHA256:   s.inputSHA,
		InputSize:     s.inputSize,
		Options:       s.opts,
		Functions:     s.res.Functions,
		Sizes:         s.res.Sizes,
		Phases:        s.bctx.Timings,
		Metrics:       maps.Clone(s.bctx.Stats),
		Dyno:          dyno,
	}
	// The tracer handle is operational state, not run description: the
	// report keeps what was derived from it, not the handle.
	rep.Options.Trace = nil
	if tr := s.opts.Trace; tr != nil {
		rep.Occupancy = obsv.Occupancy(tr.Spans())
	}
	if s.fd != nil {
		rep.Profile = &Profile{
			Source:        s.profileDesc,
			Branches:      len(s.fd.Branches),
			Samples:       len(s.fd.Samples),
			FlowAccBefore: s.bctx.FlowAccBefore,
			FlowAccAfter:  s.bctx.FlowAccAfter,
		}
	}
	return rep
}
