// Package bincheck is an independent static verifier for BOLTed
// binaries. It re-opens a rewritten ELF from its serialized bytes,
// re-disassembles every function fragment, and checks the structural
// invariants the rewriter promises — branch targets, jump tables, CFI,
// LSDA, the BAT translation map, and symbol/section sanity — without
// consulting any of the emitter's in-memory state. The paper's core
// claim is that the output is semantically identical to the input
// (Panchenko et al., CGO 2019, §3); this package is the artifact-trust
// gate that checks the output on its own terms before anything ships.
//
// A check is serial where it is cheap and global — the ELF read, the
// symbol index, the per-fragment FDE and BAT-range tallies with the
// findings they raise (cfi-bounds, cfi-cover, bat-range, bat-cover), the
// sym-* and reloc-bounds rules, the final sort — and fans out over the
// shared pool (internal/par) everywhere else, each worker keeping its
// own findings: disassembly per fragment, with the frame and BAT section
// decodes as two more tasks beside it; then the branch, jump-table and
// split-CFA rules per fragment, the CFI-program and LSDA rules per FDE,
// and the anchor rules per BAT range.
//
// Findings are structured diagnostics: a stable rule ID, a severity,
// the owning function, and the offending address. Rule IDs:
//
//	disasm        fragment bytes fail to decode at an instruction start
//	branch-target direct branch/call target is not an instruction
//	              boundary inside a known fragment
//	jt-target     jump-table entry escapes its function's fragments
//	jt-unbounded  indirect jump in re-emitted code has no recognizable
//	              bounded table (warning)
//	cfi-bounds    FDE range does not match a known fragment
//	cfi-cover     re-emitted fragment has no FDE
//	cfi-decode    CFI program is malformed (offset past the FDE,
//	              off-boundary binding, restore without remember)
//	cfi-split     CFA state is inconsistent across a hot/cold split edge
//	lsda-bounds   LSDA record missing, truncated, or call-site range
//	              outside its FDE
//	lsda-pad      landing pad is not a boundary in the same function
//	bat-parse     .bolt.bat section fails to decode
//	bat-range     BAT range does not match a known fragment
//	bat-monotone  BAT anchors not strictly increasing on instruction
//	              boundaries inside the fragment
//	bat-cover     mapped fragment has no anchors, so samples cannot
//	              translate (warning)
//	bat-translate translated input offset falls outside the original
//	              function body
//	sym-overlap   two function fragments overlap
//	sym-bounds    fragment extends past its section
//	sym-entry     entry point is not a valid instruction start
//	reloc-bounds  relocation patch site is out of section bounds
package bincheck

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"gobolt/internal/bat"
	"gobolt/internal/cfi"
	"gobolt/internal/elfx"
	"gobolt/internal/par"
)

// Severity grades a finding. Errors fail `gobolt -verify`; warnings
// describe conditions the verifier cannot prove safe but that do not
// contradict an invariant on their own.
type Severity string

// Severity levels.
const (
	SeverityError   Severity = "error"
	SeverityWarning Severity = "warning"
)

// Finding is one diagnostic from the verifier.
type Finding struct {
	// Rule is the stable rule ID (see the package comment).
	Rule string `json:"rule"`
	// Severity is "error" or "warning".
	Severity Severity `json:"severity"`
	// Func is the owning function, when one is attributable.
	Func string `json:"func,omitempty"`
	// Addr is the offending virtual address, when one is attributable.
	Addr uint64 `json:"addr,omitempty"`
	// Message is the human-readable diagnostic.
	Message string `json:"msg"`
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s", f.Severity, f.Rule)
	if f.Func != "" {
		s += " " + f.Func
	}
	if f.Addr != 0 {
		s += fmt.Sprintf(" @ %#x", f.Addr)
	}
	return s + ": " + f.Message
}

// Result is the machine-readable outcome of one verification run.
type Result struct {
	// Findings lists every diagnostic, sorted by address then rule.
	Findings []Finding `json:"findings"`
	// Errors and Warnings count findings by severity.
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	// Fragments is the number of function fragments discovered and
	// re-disassembled; Instructions the total instruction count.
	Fragments    int `json:"fragments"`
	Instructions int `json:"instructions"`
	// FDEs is the number of frame entries decoded; BATRanges the number
	// of address-translation ranges checked (0 when .bolt.bat is absent).
	FDEs      int `json:"fdes"`
	BATRanges int `json:"bat_ranges"`
}

// Ok reports whether the run produced no error-severity findings.
func (r *Result) Ok() bool { return r.Errors == 0 }

// WriteJSON writes the result as indented JSON (the standalone
// cmd/bincheck artifact; the library path embeds Result in bolt.Report).
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Check verifies a BOLTed binary from its serialized bytes on GOMAXPROCS
// workers. It parses the image with elfx, rebuilds the fragment map from
// the symbol table, re-disassembles every fragment, and runs the full
// rule suite. The returned error reports only images the checker cannot
// open at all; everything wrong *inside* a parseable image is a Finding.
func Check(data []byte) (*Result, error) { return CheckJobs(data, 0) }

// CheckJobs is Check on at most jobs workers (jobs <= 0 selects
// GOMAXPROCS). The Result does not depend on jobs. The image is read in
// place: no section is copied or written, and nothing the Result holds
// points into data.
func CheckJobs(data []byte, jobs int) (*Result, error) {
	f, err := elfx.ReadInPlace(data)
	if err != nil {
		return nil, fmt.Errorf("bincheck: %w", err)
	}
	c := &checker{f: f, res: &Result{}}
	c.index()
	ws := make([]worker, par.Jobs(jobs, len(c.frags)))
	for i := range ws {
		ws[i].checker = c
	}
	// fan runs one stage over the pool. Stages never fail and a check is
	// not cancellable (Check and Session.VerifyOutput take no context),
	// so the pool's error is always nil.
	fan := func(n int, work func(w *worker, i int)) {
		par.For(context.Background(), n, len(ws), func(wi, i int) error { work(&ws[wi], i); return nil })
	}

	// The frame and BAT sections do not depend on the fragments: they
	// decode as two more tasks beside disassembly.
	frameSec, batSec := f.Section(cfi.FrameSectionName), f.Section(bat.SectionName)
	var fdes []cfi.FDE
	var table *bat.Table
	var fdeErr, batErr error
	fan(2+len(c.frags), func(w *worker, i int) {
		switch {
		case i >= 2:
			w.disassemble(c.frags[i-2])
		case i == 0 && frameSec != nil:
			fdes, fdeErr = cfi.DecodeFrames(frameSec.Data)
		case i == 1 && batSec != nil:
			table, batErr = bat.Parse(batSec.Data)
		}
	})

	for _, fr := range c.frags {
		c.res.Instructions += fr.ninst
	}
	serial := &ws[0]
	serial.checkSymbols()
	fdeOwners := serial.bindFrames(frameSec, fdes, fdeErr)
	batOwners := serial.bindBAT(batSec, table, batErr)
	serial.checkRelocs()

	fan(len(c.frags), func(w *worker, i int) {
		w.checkCode(c.frags[i])
		w.checkSplitState(c.frags[i])
	})
	fan(len(fdeOwners), func(w *worker, i int) { w.checkFDE(fdeOwners[i], &fdes[i]) })
	fan(len(batOwners), func(w *worker, i int) { w.checkAnchors(batOwners[i], table, &table.Ranges[i]) })

	for i := range ws {
		c.res.Findings = append(c.res.Findings, ws[i].findings...)
	}
	c.res.finish()
	return c.res, nil
}

// reportf records a finding on the worker's private list.
func (w *worker) reportf(rule string, sev Severity, fn string, addr uint64, format string, args ...any) {
	w.findings = append(w.findings, Finding{
		Rule: rule, Severity: sev, Func: fn, Addr: addr,
		Message: fmt.Sprintf(format, args...),
	})
}

func (w *worker) errorf(rule, fn string, addr uint64, format string, args ...any) {
	w.reportf(rule, SeverityError, fn, addr, format, args...)
}

func (w *worker) warnf(rule, fn string, addr uint64, format string, args ...any) {
	w.reportf(rule, SeverityWarning, fn, addr, format, args...)
}

// finish puts the findings in their one total order and tallies
// severities. Every field takes part, so the order the workers' lists
// were merged in cannot show; address, rule and message lead, so the
// order refines the one the serial checker's stable sort gave.
func (r *Result) finish() {
	if r.Findings == nil {
		r.Findings = []Finding{} // "findings": [] in the report, never null
	}
	slices.SortFunc(r.Findings, func(a, b Finding) int {
		return cmp.Or(
			cmp.Compare(a.Addr, b.Addr),
			cmp.Compare(a.Rule, b.Rule),
			cmp.Compare(a.Message, b.Message),
			cmp.Compare(a.Func, b.Func),
			cmp.Compare(a.Severity, b.Severity),
		)
	})
	for _, f := range r.Findings {
		if f.Severity == SeverityError {
			r.Errors++
		} else {
			r.Warnings++
		}
	}
}
