package lintvet

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeFunc resolves a call expression to the *types.Func it invokes
// statically (plain calls, method calls, imported functions). Calls
// through function-typed variables or interface values return nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// isPkgFunc reports whether f is the named function (or method) in a
// package whose import path ends with pathSuffix. Matching by suffix
// keeps the analyzers testable: testdata packages live under
// gobolt/internal/lintvet/testdata/... but can still stand in for
// "internal/par" by ending with /par.
func isPkgFunc(f *types.Func, pathSuffix, name string) bool {
	if f == nil || f.Name() != name || f.Pkg() == nil {
		return false
	}
	p := f.Pkg().Path()
	return p == pathSuffix || strings.HasSuffix(p, "/"+pathSuffix)
}

// isMapType reports whether e's type is (or aliases) a map.
func isMapType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// funcDecls yields every function and method declaration in the pass.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// declObj returns the types.Func object for a declaration.
func declObj(info *types.Info, fd *ast.FuncDecl) *types.Func {
	f, _ := info.Defs[fd.Name].(*types.Func)
	return f
}

// hasWriterParam reports whether the function signature receives an
// io.Writer-shaped destination (io.Writer itself, any interface with
// a Write([]byte) method, *bytes.Buffer, or *strings.Builder) — the
// cheap structural signal that the function produces output.
func hasWriterParam(sig *types.Signature) bool {
	check := func(t types.Type) bool {
		if t == nil {
			return false
		}
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		switch tn := t.(type) {
		case *types.Named:
			n := tn.Obj().Name()
			pkg := tn.Obj().Pkg()
			if pkg != nil && (pkg.Path() == "bytes" && n == "Buffer" || pkg.Path() == "strings" && n == "Builder") {
				return true
			}
		}
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return false
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == "Write" {
				return true
			}
		}
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if check(sig.Params().At(i).Type()) {
			return true
		}
	}
	if r := sig.Recv(); r != nil && check(r.Type()) {
		return true
	}
	return false
}
