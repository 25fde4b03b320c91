package core

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// TestTypesHoldInvariants proves that two invariants — obj.SymID's bit
// layout belongs to internal/obj, every stat key is declared in core — are
// compile errors: each snippet is type-checked from outside both packages
// against their real sources and must be rejected.
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
