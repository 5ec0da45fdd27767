package analysis

import (
	"go/ast"
)

// poolImportPath is the arena package whose Get/Put pairing the analyzer
// enforces. Scope.Get buffers are exempt by construction: a Scope releases
// everything at the step boundary, and Scope methods are not package-level
// selectors, so they never match.
const poolImportPath = "repro/internal/pool"

// PoolBalance returns the poolbalance analyzer: every buffer drawn with
// pool.Get or pool.GetUninit must, on every path through the function, reach
// a pool.Put or a visible handoff (returned to the caller, stored in a
// structure, captured by a closure, sent on a channel). The arena's
// leak-check counters catch an unbalanced path only when a test happens to
// drive it; this is the same contract, path-insensitively, at build time.
// The analyzer needs no package scoping — only code that imports
// repro/internal/pool can trip it.
func PoolBalance() *Analyzer {
	a := &Analyzer{
		Name: "poolbalance",
		Doc:  "pool.Get/GetUninit buffer that can exit the function without pool.Put or a handoff",
	}
	spec := &balanceSpec{
		what:     "pooled buffer",
		requires: "pool.Put or an explicit handoff",
	}
	spec.consume = func(pass *Pass, call *ast.CallExpr, v *binding) bool {
		if fn := calleeFunc(pass.Pkg.Info, call); !isPkgFunc(fn, poolImportPath) || fn.Name() != "Put" {
			return false
		}
		for _, arg := range call.Args {
			if refsBinding(pass.Pkg.Info, arg, v) {
				return true
			}
		}
		return false
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			funcBodies(f, func(ft *ast.FuncType, body *ast.BlockStmt, _ *ast.CommentGroup) {
				ast.Inspect(body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.ExprStmt:
						if call, ok := n.X.(*ast.CallExpr); ok && isPoolGet(pass, call) {
							pass.Report(call.Pos(), "pool.%s result discarded; the buffer can never be released", poolGetName(pass, call))
						}
					case *ast.AssignStmt:
						if len(n.Rhs) != 1 {
							return true
						}
						call, ok := n.Rhs[0].(*ast.CallExpr)
						if !ok || !isPoolGet(pass, call) {
							return true
						}
						if len(n.Lhs) != 1 {
							return true
						}
						if isBlank(n.Lhs[0]) {
							pass.Report(call.Pos(), "pool.%s result assigned to _; the buffer can never be released", poolGetName(pass, call))
							return true
						}
						if _, isIdent := n.Lhs[0].(*ast.Ident); !isIdent {
							return true // stored into a field/element: immediate handoff
						}
						v := bindingFor(pass.Pkg, n.Lhs[0], call.Pos())
						if v != nil {
							checkBalance(pass, spec, ft, body, ast.Stmt(n), v)
						}
					}
					return true
				})
			})
		}
	}
	return a
}

func isPoolGet(pass *Pass, call *ast.CallExpr) bool {
	return poolGetName(pass, call) != ""
}

func poolGetName(pass *Pass, call *ast.CallExpr) string {
	if fn := calleeFunc(pass.Pkg.Info, call); isPkgFunc(fn, poolImportPath) && (fn.Name() == "Get" || fn.Name() == "GetUninit") {
		return fn.Name()
	}
	return ""
}
