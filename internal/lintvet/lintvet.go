// Package lintvet is the in-tree static-analysis suite ("boltvet")
// that promotes two of the repo's house invariants — byte-identical
// output across -jobs, context plumbing — from runtime tests to
// compile-time checks. Invariants a type can hold (declared stat keys:
// core.Stat; the emission-symbol layout: obj.SymID) are left to the
// compiler, and invariants a measurement holds (allocations per op:
// the benchmark's 1 % bound; schedule-independent float totals:
// bolt's cross-jobs metrics test) have no analyzer either. It is
// a deliberately small re-implementation of the golang.org/x/tools
// go/analysis surface on the standard library alone: packages are
// loaded through `go list -export` (the go command resolves the
// module graph and builds export data), target sources are parsed and
// type-checked with go/types, and each analyzer walks the typed ASTs.
//
// Diagnostics are suppressible site-by-site with a directive comment:
//
//	//boltvet:<name> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory — a reasonless directive is itself a diagnostic — and
// every suppression in the tree must also be listed in
// suppressions.txt (TestSuppressionAudit), so silent accretion of
// exemptions fails the build twice over.
package lintvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and cmd/boltvet output.
	Name string
	// Doc is the one-line description shown by cmd/boltvet and the README.
	Doc string
	// Directive is the suppression directive the analyzer honors
	// (e.g. "sorted-ok" makes `//boltvet:sorted-ok reason` suppress it).
	Directive string
	// Run reports the analyzer's diagnostics for one package.
	Run func(*Pass)
}

// A Pass carries one package's typed syntax to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Path     string // import path of the package under analysis
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos unless a matching suppression
// directive covers that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned for file:line reporting.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// DirectivePrefix introduces every boltvet comment directive.
const DirectivePrefix = "//boltvet:"

// directive is one parsed //boltvet: comment.
type directive struct {
	name   string
	reason string
	pos    token.Pos
	line   int
	used   bool
}

// parseDirectives extracts every //boltvet: comment from file,
// keyed by line number. Malformed grammar (no name) is reported
// immediately; empty reasons are reported by checkDirectives after
// the analyzers run.
func parseDirectives(fset *token.FileSet, file *ast.File) []*directive {
	var out []*directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, DirectivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, DirectivePrefix)
			name, reason, _ := strings.Cut(rest, " ")
			// A trailing `// ...` on the same line (like the testdata
			// `// want` annotations) is commentary, not reason text.
			if i := strings.Index(reason, "//"); i >= 0 {
				reason = reason[:i]
			}
			out = append(out, &directive{
				name:   name,
				reason: strings.TrimSpace(reason),
				pos:    c.Pos(),
				line:   fset.Position(c.Pos()).Line,
			})
		}
	}
	return out
}

// fileDirectives indexes one file's directives for suppression lookup.
type fileDirectives struct {
	byLine map[int][]*directive
	all    []*directive
}

func indexDirectives(ds []*directive) *fileDirectives {
	fd := &fileDirectives{byLine: make(map[int][]*directive, len(ds)), all: ds}
	for _, d := range ds {
		fd.byLine[d.line] = append(fd.byLine[d.line], d)
	}
	return fd
}

// suppresses reports whether a directive named name covers line: the
// directive must sit on the line itself or the line directly above,
// and must carry a reason (reasonless directives never suppress — they
// are themselves diagnostics, so the underlying finding stays visible
// until the reason is written).
func (fd *fileDirectives) suppresses(name string, line int) bool {
	if fd == nil {
		return false
	}
	for _, d := range fd.byLine[line] {
		if d.name == name && d.reason != "" {
			d.used = true
			return true
		}
	}
	for _, d := range fd.byLine[line-1] {
		if d.name == name && d.reason != "" {
			d.used = true
			return true
		}
	}
	return false
}

// checkDirectives validates one file's directives after every
// analyzer ran: unknown names, missing reasons, and suppressions that
// no longer suppress anything are all diagnostics, so the directive
// population can only shrink back toward zero.
func checkDirectives(fset *token.FileSet, fd *fileDirectives, known map[string]bool, report func(Diagnostic)) {
	for _, d := range fd.all {
		pos := fset.Position(d.pos)
		switch {
		case !known[d.name]:
			names := make([]string, 0, len(known))
			for n := range known {
				names = append(names, n)
			}
			sort.Strings(names)
			report(Diagnostic{Pos: pos, Analyzer: "directive",
				Message: fmt.Sprintf("unknown boltvet directive %q (valid: %s)", d.name, strings.Join(names, ", "))})
		case d.reason == "":
			report(Diagnostic{Pos: pos, Analyzer: "directive",
				Message: fmt.Sprintf("boltvet:%s needs a reason: //boltvet:%s <why this site is exempt>", d.name, d.name)})
		case !d.used:
			report(Diagnostic{Pos: pos, Analyzer: "directive",
				Message: fmt.Sprintf("boltvet:%s suppresses nothing here — remove the stale directive", d.name)})
		}
	}
}
