package lintvet

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// checkTestdata runs analyzers over testdata packages and reports any
// mismatch against their `// want` annotations.
func checkTestdata(t *testing.T, analyzers []*Analyzer, dirs ...string) {
	t.Helper()
	root := testModuleRoot(t)
	problems, err := CheckPackage(root, analyzers, dirs...)
	if err != nil {
		t.Fatalf("loading %v: %v", dirs, err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func testModuleRoot(t *testing.T) string {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestMapIter(t *testing.T) {
	checkTestdata(t, []*Analyzer{MapIter}, "internal/lintvet/testdata/src/mapiter")
}

func TestCtxThread(t *testing.T) {
	checkTestdata(t, []*Analyzer{CtxThread}, "internal/lintvet/testdata/src/ctxthread")
}

func TestDirectiveGrammar(t *testing.T) {
	// The full suite runs so every directive name is known; the
	// package exercises reasonless, unknown, and stale directives.
	checkTestdata(t, All(), "internal/lintvet/testdata/src/directive")
}

// TestAnalyzerRegistry pins the suite: cmd/boltvet registers exactly
// this documented set, every analyzer is self-describing, and the
// README's "Static analysis" section names each one with its
// directive.
func TestAnalyzerRegistry(t *testing.T) {
	want := []string{"mapiter", "ctxthread"}
	all := All()
	var got []string
	for _, a := range all {
		got = append(got, a.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("All() = %v, want %v", got, want)
	}

	directives := map[string]string{}
	for _, a := range all {
		if a.Doc == "" {
			t.Errorf("%s: empty Doc", a.Name)
		}
		if a.Directive == "" {
			t.Errorf("%s: empty Directive", a.Name)
		}
		if prev, dup := directives[a.Directive]; dup {
			t.Errorf("%s and %s share directive %q", prev, a.Name, a.Directive)
		}
		directives[a.Directive] = a.Name
	}

	readme, err := os.ReadFile(filepath.Join(testModuleRoot(t), "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range all {
		if !strings.Contains(string(readme), "`"+a.Name+"`") {
			t.Errorf("README.md does not document analyzer `%s`", a.Name)
		}
		if !strings.Contains(string(readme), "boltvet:"+a.Directive) {
			t.Errorf("README.md does not document directive boltvet:%s", a.Directive)
		}
	}
}

// TestTypesHoldInvariants proves that the two invariants boltvet no
// longer polices — obj.SymID's bit layout belongs to internal/obj, every
// stat key is declared in core — are compile errors: each snippet is
// type-checked from outside both packages against their real sources and
// must be rejected.
func TestTypesHoldInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/core and its imports from source")
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	check := func(body string) error {
		src := `package probe

import (
	"gobolt/internal/core"
	"gobolt/internal/obj"
)

func _(sym obj.SymID, fc *core.FuncCtx) { ` + body + ` }
`
		f, err := parser.ParseFile(fset, "probe.go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = (&types.Config{Importer: imp}).Check("probe", fset, []*ast.File{f}, nil)
		return err
	}
	if err := check(`_ = sym.Kind(); fc.CountStat(core.StatICFFolded, 1)`); err != nil {
		t.Fatalf("control snippet must type-check: %v", err)
	}
	for _, tc := range []struct{ body, want string }{
		{`_ = sym >> 61`, "shift"},
		{`_ = obj.SymID(7)`, "cannot convert 7"},
		{`_ = uint64(sym)`, "cannot convert sym"},
		{`fc.CountStat("icf-foldd", 1)`, `cannot use "icf-foldd"`},
	} {
		if err := check(tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want a type error containing %q", tc.body, err, tc.want)
		}
	}
}

// TestTreeClean is the self-application gate: the full suite over the
// full module must report nothing, which is also what CI's
// `go run ./cmd/boltvet ./...` step asserts.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	diags, err := Run(testModuleRoot(t), []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestProbeDetection feeds the loader a deliberately-broken copy of
// an emit-shaped function — an unsorted map range on a writer path —
// and asserts the suite catches it. This is the end-to-end proof that
// a regression in a real emit file would fail CI, without breaking a
// real file to find out.
func TestProbeDetection(t *testing.T) {
	dir := t.TempDir()
	src := `package probe

import (
	"fmt"
	"io"
)

func WriteStats(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s %d\n", k, v)
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "probe.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module probe\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := Run(dir, []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "mapiter" && strings.Contains(d.Message, "WriteStats") {
			found = true
		}
	}
	if !found {
		t.Fatalf("probe not detected; diagnostics: %v", diags)
	}
}

// TestToolVersionsPinned keeps the CI workflow's third-party analyzer
// installs in lockstep with the pinned versions in toolversions.go,
// and rejects floating pins.
func TestToolVersionsPinned(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(testModuleRoot(t), ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for tool, version := range map[string]string{
		"honnef.co/go/tools/cmd/staticcheck": StaticcheckVersion,
		"golang.org/x/vuln/cmd/govulncheck":  GovulncheckVersion,
	} {
		if !strings.Contains(string(ci), tool+"@"+version) {
			t.Errorf("ci.yml does not install %s@%s (update ci.yml or toolversions.go)", tool, version)
		}
	}
	if strings.Contains(string(ci), "@latest") {
		t.Error("ci.yml installs a tool @latest: pin it in toolversions.go and ci.yml")
	}
}

// directiveRE matches a directive comment at the start of a line —
// prose mentions of the grammar inside doc comments (indented or
// backticked mid-comment) stay out of the audit.
var directiveRE = regexp.MustCompile(`(?m)^[ \t]*//boltvet:([A-Za-z0-9-]+)`)

// TestSuppressionAudit walks the tree for //boltvet: directives
// (testdata excluded — seeded violations live there) and compares the
// population against suppressions.txt. Growing the exemption list
// without updating the committed allowlist fails the build.
func TestSuppressionAudit(t *testing.T) {
	root := testModuleRoot(t)

	var got []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range directiveRE.FindAllStringSubmatch(string(data), -1) {
			got = append(got, fmt.Sprintf("%s:%s", filepath.ToSlash(rel), m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)

	var want []string
	f, err := os.Open(filepath.Join(root, "internal", "lintvet", "suppressions.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		want = append(want, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)

	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("tree directives and internal/lintvet/suppressions.txt disagree\ntree:\n  %s\nallowlist:\n  %s\nupdate suppressions.txt alongside the directive change",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
