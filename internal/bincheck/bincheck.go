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
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"gobolt/internal/elfx"
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

// Check verifies a BOLTed binary from its serialized bytes. It parses
// the image with elfx, rebuilds the fragment map from the symbol table,
// re-disassembles every fragment, and runs the full rule suite. The
// returned error reports only images the checker cannot open at all;
// everything wrong *inside* a parseable image is a Finding.
func Check(data []byte) (*Result, error) {
	f, err := elfx.Read(data)
	if err != nil {
		return nil, fmt.Errorf("bincheck: %w", err)
	}
	c := &checker{f: f, res: &Result{Findings: []Finding{}}}
	c.discover()
	c.checkSymbols()
	c.checkCode()
	c.checkCFI()
	c.checkBAT()
	c.checkRelocs()
	c.finish()
	return c.res, nil
}

// reportf records a finding.
func (c *checker) reportf(rule string, sev Severity, fn string, addr uint64, format string, args ...any) {
	c.res.Findings = append(c.res.Findings, Finding{
		Rule: rule, Severity: sev, Func: fn, Addr: addr,
		Message: fmt.Sprintf(format, args...),
	})
}

func (c *checker) errorf(rule, fn string, addr uint64, format string, args ...any) {
	c.reportf(rule, SeverityError, fn, addr, format, args...)
}

func (c *checker) warnf(rule, fn string, addr uint64, format string, args ...any) {
	c.reportf(rule, SeverityWarning, fn, addr, format, args...)
}

// finish sorts findings deterministically and tallies severities.
func (c *checker) finish() {
	sort.SliceStable(c.res.Findings, func(i, j int) bool {
		a, b := c.res.Findings[i], c.res.Findings[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	for _, f := range c.res.Findings {
		if f.Severity == SeverityError {
			c.res.Errors++
		} else {
			c.res.Warnings++
		}
	}
}
