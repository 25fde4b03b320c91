package lintvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// MapIter flags `for range` over a map inside any function reachable
// from output-producing code. Go randomizes map iteration order, so a
// map range on a path that serializes bytes — the emitter, BAT/fdata
// writers, report and trace renderers — is exactly the bug class that
// breaks the byte-identical-across-jobs guarantee, and only
// probabilistically: a runtime test must get unlucky to catch it,
// while this check fails on the diff.
//
// Output-producing roots are detected structurally: a function is a
// root if it receives an io.Writer-shaped destination (io.Writer,
// *bytes.Buffer, *strings.Builder) or its name matches the writer
// naming convention (Write*/Print*/Emit*/Serialize*/Marshal*/
// Render*/Report*/Fprint*/Dump*/Link*, or String(); Link because the
// linker returns its image instead of writing it, and a symbol table
// built in map order is output all the same). Reachability is the
// static call graph within the package (calls resolved through
// go/types; calls through function values are approximated by
// treating referenced functions as callees).
//
// Two shapes are recognized as deterministic and exempted:
//
//   - collect-then-sort: a range body that only appends keys/values
//     to local slices which are later passed to a sort call in the
//     same function;
//   - map-to-map transfer: a body that only writes map indexes or
//     deletes map keys (order-independent by construction).
//
// Anything else needs `//boltvet:sorted-ok <reason>`.
var MapIter = &Analyzer{
	Name:      "mapiter",
	Doc:       "map iteration in output-reachable code must sort keys first",
	Directive: "sorted-ok",
	Run:       runMapIter,
}

var outputNameRE = regexp.MustCompile(`(?i)^(write|print|emit|serialize|marshal|render|report|fprint|dump|link)|(?i)(rewrite|tostring|dynostats)|^String$`)

func runMapIter(p *Pass) {
	decls := funcDecls(p.Files)

	// Build the package call graph: declared function -> declared
	// functions it references (calls and bare references both count,
	// so funcs passed as values stay reachable).
	byObj := make(map[*types.Func]*ast.FuncDecl, len(decls))
	for _, fd := range decls {
		if o := declObj(p.Info, fd); o != nil {
			byObj[o] = fd
		}
	}
	calls := make(map[*ast.FuncDecl][]*ast.FuncDecl, len(decls))
	for _, fd := range decls {
		seen := map[*ast.FuncDecl]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if f, ok := p.Info.Uses[id].(*types.Func); ok {
				if callee := byObj[f]; callee != nil && !seen[callee] {
					seen[callee] = true
					calls[fd] = append(calls[fd], callee)
				}
			}
			return true
		})
	}

	// Roots: writer-shaped signature or writer-convention name.
	reachable := map[*ast.FuncDecl]bool{}
	var frontier []*ast.FuncDecl
	for _, fd := range decls {
		o := declObj(p.Info, fd)
		if o == nil {
			continue
		}
		sig := o.Type().(*types.Signature)
		if outputNameRE.MatchString(fd.Name.Name) || hasWriterParam(sig) {
			reachable[fd] = true
			frontier = append(frontier, fd)
		}
	}
	for len(frontier) > 0 {
		fd := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, callee := range calls[fd] {
			if !reachable[callee] {
				reachable[callee] = true
				frontier = append(frontier, callee)
			}
		}
	}

	for _, fd := range decls {
		if !reachable[fd] {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !isMapType(p.Info, rng.X) {
				return true
			}
			if mapTransferLoop(p.Info, rng) {
				return true
			}
			if collected := collectLoop(p.Info, rng); collected != nil && sortedLater(p.Info, fd.Body, rng, collected) {
				return true
			}
			p.Reportf(rng.Pos(), "iterating a map in output-reachable %s: order is randomized — sort the keys first (or //boltvet:sorted-ok <reason>)", fd.Name.Name)
			return true
		})
	}
}

// mapTransferLoop reports whether every statement in the range body
// is an order-independent map write: m2[k] = v assignments, delete()
// calls, or map-keyed compound assignment (m2[k] += v commutes for
// the additive stat-merge shapes).
func mapTransferLoop(info *types.Info, rng *ast.RangeStmt) bool {
	if len(rng.Body.List) == 0 {
		return false
	}
	for _, st := range rng.Body.List {
		switch s := st.(type) {
		case *ast.AssignStmt:
			ok := len(s.Lhs) == 1
			if ok {
				ix, isIx := s.Lhs[0].(*ast.IndexExpr)
				ok = isIx && isMapType(info, ix.X)
			}
			if !ok {
				return false
			}
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				return false
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "delete" {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// collectLoop recognizes a pure collection body — appends to local
// slices, optionally guarded by ifs or skipped with continue — and
// returns the objects collected into. Any other effect disqualifies
// the loop: collection order never matters when the only output is a
// slice that sortedLater proves gets sorted.
func collectLoop(info *types.Info, rng *ast.RangeStmt) []types.Object {
	var out []types.Object
	var allowed func(st ast.Stmt) bool
	allowed = func(st ast.Stmt) bool {
		switch s := st.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			lhs, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok {
				return false
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
				return false
			}
			if o := info.Uses[lhs]; o != nil {
				out = append(out, o)
			} else if o := info.Defs[lhs]; o != nil {
				out = append(out, o)
			}
			return true
		case *ast.IfStmt:
			for _, b := range s.Body.List {
				if !allowed(b) {
					return false
				}
			}
			if s.Else != nil {
				if blk, ok := s.Else.(*ast.BlockStmt); ok {
					for _, b := range blk.List {
						if !allowed(b) {
							return false
						}
					}
				} else {
					return allowed(s.Else)
				}
			}
			return true
		case *ast.BranchStmt:
			return s.Tok == token.CONTINUE
		}
		return false
	}
	if len(rng.Body.List) == 0 {
		return nil
	}
	for _, st := range rng.Body.List {
		if !allowed(st) {
			return nil
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// sortedLater reports whether, after the range statement, every
// collected slice is handed to a sorting call (sort.*, slices.Sort*,
// or any function whose name contains "sort") within the same body.
func sortedLater(info *types.Info, body *ast.BlockStmt, rng *ast.RangeStmt, collected []types.Object) bool {
	sorted := make(map[types.Object]bool, len(collected))
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		name := ""
		switch fn := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fn.Name
		case *ast.SelectorExpr:
			name = fn.Sel.Name
			if x, ok := fn.X.(*ast.Ident); ok {
				name = x.Name + "." + name
			}
		}
		if !strings.Contains(strings.ToLower(name), "sort") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok {
					for _, o := range collected {
						if info.Uses[id] == o {
							sorted[o] = true
						}
					}
				}
				return true
			})
		}
		return true
	})
	for _, o := range collected {
		if !sorted[o] {
			return false
		}
	}
	return true
}
