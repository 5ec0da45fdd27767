package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// spanBalanceScope is the instrumented surface: the packages whose Perfetto
// tracks must never go ragged. internal/obs itself is the span
// implementation and is exempt.
var spanBalanceScope = []string{
	"internal/core", "internal/comm", "internal/dist",
	"internal/kernels", "internal/serve",
}

// SpanBalance returns the spanbalance analyzer: a span begin — a tracer
// clock read `start := tr.Now()` whose receiver's type also carries a
// Span-emitting method — must flow into a span end (any call taking the
// timestamp) on every path out of the function. Returns that carry a non-nil
// error are exempt: a crash-out path may drop its span, a success path may
// not. Device clocks (`dev.Now()`) are not span begins because the device
// type has no Span method.
func SpanBalance(scope ...string) *Analyzer {
	if len(scope) == 0 {
		scope = spanBalanceScope
	}
	a := &Analyzer{
		Name: "spanbalance",
		Doc:  "obs span begin that can exit the function without its span end",
	}
	spec := &balanceSpec{
		what:               "span begin",
		requires:           "reaching its span end",
		anyCallArgConsumes: true,
		exemptReturn:       errorReturnExempt,
	}
	a.Run = func(pass *Pass) {
		if !pkgMatchesAny(pass.Pkg, scope) {
			return
		}
		for _, f := range pass.Pkg.Files {
			funcBodies(f, func(ft *ast.FuncType, body *ast.BlockStmt, _ *ast.CommentGroup) {
				ast.Inspect(body, func(n ast.Node) bool {
					as, ok := n.(*ast.AssignStmt)
					if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
						return true
					}
					call, ok := as.Rhs[0].(*ast.CallExpr)
					if !ok || !isSpanBegin(pass, call) {
						return true
					}
					v := bindingFor(pass.Pkg, as.Lhs[0], call.Pos())
					if v != nil {
						checkBalance(pass, spec, ft, body, ast.Stmt(as), v)
					}
					return true
				})
			})
		}
	}
	return a
}

// isSpanBegin reports whether call is a tracer clock read: a Now/now method
// whose receiver's named type (or pointee) also has a method with "Span" in
// its name. That shape matches *obs.Tracer and the per-job wrappers around
// it, and rejects wall clocks, device clocks, and package-level time.Now.
func isSpanBegin(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	if sel.Sel.Name != "Now" && sel.Sel.Name != "now" {
		return false
	}
	s := pass.Pkg.Info.Selections[sel]
	return s != nil && s.Kind() == types.MethodVal && hasSpanMethod(s.Recv())
}

// hasSpanMethod reports whether t's method set — through a pointer, so
// pointer-receiver and promoted methods count — has a method whose name
// contains "Span" or "span".
func hasSpanMethod(t types.Type) bool {
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr && !types.IsInterface(t) {
		t = types.NewPointer(t)
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if name := ms.At(i).Obj().Name(); strings.Contains(name, "Span") || strings.Contains(name, "span") {
			return true
		}
	}
	return false
}

// errorReturnExempt reports whether ret is an error-bearing exit: one of the
// function's results has the predeclared type error and the returned value
// in that slot is not the literal nil. Naked returns in error-result
// functions are exempt too (the named error may be set).
func errorReturnExempt(info *types.Info, ft *ast.FuncType, ret *ast.ReturnStmt) bool {
	if ft == nil || ft.Results == nil {
		return false
	}
	errIdx := -1
	idx := 0
	for _, field := range ft.Results.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if info.TypeOf(field.Type) == types.Universe.Lookup("error").Type() {
			errIdx = idx + n - 1
		}
		idx += n
	}
	if errIdx < 0 {
		return false
	}
	if len(ret.Results) == 0 {
		return true // naked return; the named error may be non-nil
	}
	if errIdx >= len(ret.Results) {
		return true // `return f()` forwarding another call's results
	}
	return !info.Types[ret.Results[errIdx]].IsNil()
}
