package lintvet

import (
	"fmt"
	"go/ast"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// All returns the full boltvet analyzer suite in reporting order.
// cmd/boltvet registers exactly this set; TestAnalyzerRegistry pins
// the names against the README's documented list.
func All() []*Analyzer {
	return []*Analyzer{
		MapIter,
		HotAlloc,
		CtxThread,
		FloatOrder,
	}
}

// Run loads patterns from moduleDir and applies every analyzer,
// returning the surviving diagnostics sorted by position. Every
// analyzer judges a package on its own, so none depends on the order
// packages are visited in (Load's import-path order); per-file directive
// state is shared across analyzers so suppression bookkeeping —
// including the stale-directive check — sees the whole run.
func Run(moduleDir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(moduleDir, patterns)
	if err != nil {
		return nil, err
	}
	return RunPackages(pkgs, analyzers), nil
}

// RunPackages applies analyzers to already-loaded packages (the
// analysistest harness path).
func RunPackages(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{HotPathDirective: true}
	for _, a := range analyzers {
		if a.Directive != "" {
			known[a.Directive] = true
		}
	}

	var diags []Diagnostic
	for _, pkg := range pkgs {
		dirs := make(map[*ast.File]*fileDirectives, len(pkg.Files))
		for _, f := range pkg.Files {
			dirs[f] = indexDirectives(parseDirectives(pkg.Fset, f))
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Path:     pkg.ImportPath,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
			}
			pass.report = func(d Diagnostic) {
				if fd := dirs[fileOf(pkg, d)]; fd.suppresses(a.Directive, d.Pos.Line) {
					return
				}
				diags = append(diags, d)
			}
			a.Run(pass)
		}
		for _, f := range pkg.Files {
			checkDirectives(pkg.Fset, dirs[f], known, func(d Diagnostic) { diags = append(diags, d) })
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// fileOf finds the *ast.File a diagnostic was reported in.
func fileOf(pkg *Package, d Diagnostic) *ast.File {
	for _, f := range pkg.Files {
		if pkg.Fset.Position(f.Pos()).Filename == d.Pos.Filename {
			return f
		}
	}
	return nil
}

// Main is the cmd/boltvet entry point: it runs the full suite on the
// given patterns (default ./...) from the nearest module root and
// prints diagnostics go-vet style. The exit code is 0 for a clean
// tree, 1 when diagnostics were reported, 2 on loader failure.
func Main(out, errOut io.Writer, args []string) int {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 2
	}
	diags, err := Run(root, args, All())
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 2
	}
	for _, d := range diags {
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			d.Pos.Filename = rel
		}
		fmt.Fprintln(out, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(errOut, "boltvet: %d diagnostic(s)\n", len(diags))
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod, so boltvet can be invoked from any subdirectory like go vet.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("boltvet: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
