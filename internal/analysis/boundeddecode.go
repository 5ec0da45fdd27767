package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// boundedDecodeScope is where decoders live: wire frames, checkpoint
// readers, and the core restore path that consumes both.
var boundedDecodeScope = []string{
	"internal/dist", "internal/checkpoint", "internal/core",
}

// decodeMethods are the Reader-style methods whose results are
// attacker-controlled counts. Only methods match, so package-level functions
// such as math/rand.Int are out of scope.
var decodeMethods = map[string]bool{"Int": true, "Uint32": true, "Uint64": true}

// BoundedDecode returns the boundeddecode analyzer: an allocation (`make`,
// or an append loop driven by a decoded bound) whose size derives from a
// decoded count must be preceded by a bound check on that count — a
// comparison against remaining input bytes, an expected length, or a
// constant ceiling. This is PR 2's allocation-bomb contract ("decoders never
// trust declared lengths") made path-insensitive and automatic.
func BoundedDecode(scope ...string) *Analyzer {
	if len(scope) == 0 {
		scope = boundedDecodeScope
	}
	a := &Analyzer{
		Name: "boundeddecode",
		Doc:  "allocation sized by a decoded count with no preceding bound check",
	}
	a.Run = func(pass *Pass) {
		if !pkgMatchesAny(pass.Pkg, scope) {
			return
		}
		for _, f := range pass.Pkg.Files {
			funcBodies(f, func(_ *ast.FuncType, body *ast.BlockStmt, _ *ast.CommentGroup) {
				checkDecodeBounds(pass, body)
			})
		}
	}
	return a
}

// decodedVar is one tracked count: the variable and the root decode
// variables it derives from (a guard on any root sanitizes the derivative).
type decodedVar struct {
	names map[string]bool
}

func checkDecodeBounds(pass *Pass, body *ast.BlockStmt) {
	// First pass: collect decoded counts and their pure derivatives, in
	// source order, plus every if-condition (candidate guards).
	tracked := map[string]*decodedVar{} // by variable name
	var conds []ast.Expr

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // analyzed as its own body
		case *ast.IfStmt:
			conds = append(conds, n.Cond)
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			if call := unwrapConversion(pass.Pkg.Info, n.Rhs[0]); call != nil && isDecodeCall(pass, call) {
				for _, l := range n.Lhs {
					if id, ok := l.(*ast.Ident); ok && id.Name != "_" && id.Name != "err" {
						tracked[id.Name] = &decodedVar{names: map[string]bool{id.Name: true}}
					}
				}
				return true
			}
			// pure derivative of a tracked count (take := n - len(p))
			if len(n.Lhs) == 1 {
				if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					if roots := trackedRoots(tracked, n.Rhs[0]); roots != nil && pureExpr(pass.Pkg, n.Rhs[0]) {
						tracked[id.Name] = &decodedVar{names: roots}
					}
				}
			}
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}

	// A guard that bounds any tracked variable sanitizes that variable's
	// root counts from its position onward (a check on a derivative covers
	// the count it derives from).
	type guard struct {
		pos   token.Pos
		roots map[string]bool
	}
	var guards []guard
	for _, cond := range conds {
		if roots := sanitizedRoots(tracked, cond); roots != nil {
			guards = append(guards, guard{pos: cond.Pos(), roots: roots})
		}
	}
	guardedBefore := func(pos token.Pos, roots map[string]bool) bool {
		for root := range roots {
			ok := false
			for _, g := range guards {
				if g.pos < pos && g.roots[root] {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}

	// Second pass: flag unguarded allocations sized by a tracked count.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			id, ok := n.Fun.(*ast.Ident)
			if !ok || id.Name != "make" || len(n.Args) < 2 {
				return true
			}
			for _, sz := range n.Args[1:] {
				if roots := trackedRoots(tracked, sz); roots != nil && !guardedBefore(n.Pos(), roots) {
					pass.Report(n.Pos(), "make sized by decoded count %s with no preceding bound check; compare it against remaining input (or an expected length) before allocating", rootList(roots))
					return true
				}
			}
		case *ast.ForStmt:
			if n.Cond == nil || !containsAppend(n.Body) {
				return true
			}
			if roots := trackedRoots(tracked, n.Cond); roots != nil && !guardedBefore(n.Pos(), roots) {
				pass.Report(n.Pos(), "append loop bounded by decoded count %s with no preceding bound check; compare it against remaining input before growing", rootList(roots))
			}
		}
		return true
	})
}

// unwrapConversion strips conversions (`int(x)`) down to the call they
// convert; nil if e is no call.
func unwrapConversion(info *types.Info, e ast.Expr) *ast.CallExpr {
	call, ok := e.(*ast.CallExpr)
	for ok && info.Types[call.Fun].IsType() && len(call.Args) == 1 {
		call, ok = call.Args[0].(*ast.CallExpr)
	}
	if !ok {
		return nil
	}
	return call
}

// isDecodeCall reports whether call is a count-returning decode method:
// a method named Int, Uint32 or Uint64.
func isDecodeCall(pass *Pass, call *ast.CallExpr) bool {
	recv, name := methodCall(pass.Pkg.Info, call)
	return recv != nil && decodeMethods[name]
}

// trackedRoots returns the union of root decode variables referenced by e,
// or nil if e mentions none.
func trackedRoots(tracked map[string]*decodedVar, e ast.Expr) map[string]bool {
	var roots map[string]bool
	ast.Inspect(e, func(n ast.Node) bool {
		// a selector's field name is not a variable reference
		if sel, ok := n.(*ast.SelectorExpr); ok {
			ast.Inspect(sel.X, func(m ast.Node) bool {
				if id, isID := m.(*ast.Ident); isID {
					if dv := tracked[id.Name]; dv != nil {
						if roots == nil {
							roots = map[string]bool{}
						}
						for r := range dv.names {
							roots[r] = true
						}
					}
				}
				return true
			})
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if dv := tracked[id.Name]; dv != nil {
				if roots == nil {
					roots = map[string]bool{}
				}
				for r := range dv.names {
					roots[r] = true
				}
			}
		}
		return true
	})
	return roots
}

// sanitizedRoots returns the root counts that cond bounds, via an
// upper-bound or equality comparison on a tracked variable: `n > lim`,
// `lim < n`, `n != want`, `n == want` all sanitize n's roots; `n < 0` alone
// does not (it is a lower bound).
func sanitizedRoots(tracked map[string]*decodedVar, cond ast.Expr) map[string]bool {
	var roots map[string]bool
	add := func(e ast.Expr) {
		for r := range trackedRoots(tracked, e) {
			if roots == nil {
				roots = map[string]bool{}
			}
			roots[r] = true
		}
	}
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch b.Op {
		case token.GTR, token.GEQ:
			add(b.X)
		case token.LSS, token.LEQ:
			add(b.Y)
		case token.EQL, token.NEQ:
			add(b.X)
			add(b.Y)
		}
		return true
	})
	return roots
}

func containsAppend(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, isID := call.Fun.(*ast.Ident); isID && id.Name == "append" {
				found = true
			}
		}
		return !found
	})
	return found
}

func rootList(roots map[string]bool) string {
	var out []string
	for r := range roots {
		out = append(out, strconv.Quote(r))
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}
