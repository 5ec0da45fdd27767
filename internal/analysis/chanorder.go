package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ChanOrder returns the chanorder analyzer: inside a loop, a channel receive
// whose value is folded into an order-sensitive sink — appended to a slice,
// accumulated into a scalar, or overwriting a variable declared outside the
// loop — is a diagnostic. The scheduler decides which goroutine finishes
// first, so the fold order differs run to run; the deterministic pattern is
// to receive into an indexed slot (results[msg.Index] = msg) and combine in
// fixed index order afterwards, as the per-GPU fan-out of core.Job.RunStep does.
func ChanOrder() *Analyzer {
	a := &Analyzer{
		Name: "chanorder",
		Doc:  "goroutine results drained in completion order instead of indexed slots",
	}
	a.Run = func(pass *Pass) {
		reported := map[token.Pos]bool{}
		report := func(pos token.Pos, format string, args ...any) {
			if !reported[pos] {
				reported[pos] = true
				pass.Report(pos, format, args...)
			}
		}
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch loop := n.(type) {
				case *ast.ForStmt:
					checkDrainLoop(pass, loop.Body, nil, report)
				case *ast.RangeStmt:
					// `for v := range ch` receives in completion order too
					var rangeRecv *ast.Ident
					if t := pass.Pkg.Info.TypeOf(loop.X); t != nil {
						if _, isChan := t.Underlying().(*types.Chan); isChan {
							if id, ok := loop.Key.(*ast.Ident); ok && id.Name != "_" {
								rangeRecv = id
							}
						}
					}
					checkDrainLoop(pass, loop.Body, rangeRecv, report)
				}
				return true
			})
		}
	}
	return a
}

type reportFunc func(pos token.Pos, format string, args ...any)

// checkDrainLoop inspects one loop body. rangeRecv, when non-nil, is the loop
// variable of a range-over-channel, which is itself a completion-order value.
func checkDrainLoop(pass *Pass, body *ast.BlockStmt, rangeRecv *ast.Ident, report reportFunc) {
	// pass 1: find receive expressions, flag direct order-sensitive sinks,
	// and record the variables bound to received values
	info := pass.Pkg.Info
	recvVars := map[types.Object]bool{}
	if rangeRecv != nil {
		recvVars[info.ObjectOf(rangeRecv)] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
			if containsRecv(as.Rhs) {
				report(as.Pos(), "received value folded into %s in completion order; receive into an indexed slot and combine in index order", types.ExprString(as.Lhs[0]))
			}
			return true
		}
		for i, rhs := range as.Rhs {
			if !isRecv(rhs) || i >= len(as.Lhs) {
				continue
			}
			switch lhs := as.Lhs[i].(type) {
			case *ast.Ident:
				if lhs.Name == "_" {
					continue
				}
				recvVars[info.ObjectOf(lhs)] = true
				if as.Tok == token.ASSIGN && declaredOutside(pass, lhs, body) {
					report(as.Pos(), "completion-order receive overwrites %s declared outside the loop; the last goroutine to finish wins", lhs.Name)
				}
			case *ast.IndexExpr:
				// results[i] = <-ch — the deterministic pattern
			default:
				report(as.Pos(), "completion-order receive stored into %s; the last goroutine to finish wins", types.ExprString(as.Lhs[i]))
			}
		}
		return true
	})

	// pass 2: flag order-sensitive uses of the recorded received values
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			if id, ok := s.Fun.(*ast.Ident); ok && id.Name == "append" {
				for _, arg := range s.Args[1:] {
					if containsRecv([]ast.Expr{arg}) || usesAny(info, arg, recvVars) {
						report(s.Pos(), "goroutine result appended in completion order; receive into an indexed slot (results[i] = r) and combine in index order")
					}
				}
			}
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ASSIGN:
				if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
					return true
				}
				lhs, ok := s.Lhs[0].(*ast.Ident)
				if !ok || lhs.Name == "_" || isRecv(s.Rhs[0]) {
					return true
				}
				if _, isCall := s.Rhs[0].(*ast.CallExpr); isCall {
					return true // x = append(x, v) and friends report via the call arm
				}
				if usesAny(info, s.Rhs[0], recvVars) && declaredOutside(pass, lhs, body) {
					report(s.Pos(), "received value assigned to %s declared outside the loop; which completion wins is scheduler-dependent", lhs.Name)
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if usesAny(info, s.Rhs[0], recvVars) {
					report(s.Pos(), "received value accumulated into %s in completion order; accumulate in fixed index order", types.ExprString(s.Lhs[0]))
				}
			}
		}
		return true
	})
}

// isRecv reports whether e is a channel receive (modulo parens).
func isRecv(e ast.Expr) bool {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	u, ok := e.(*ast.UnaryExpr)
	return ok && u.Op == token.ARROW
}

func containsRecv(exprs []ast.Expr) bool {
	for _, e := range exprs {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// declaredOutside reports whether id's variable is declared outside the loop
// body (unknown declarations count as outside — conservative).
func declaredOutside(pass *Pass, id *ast.Ident, body *ast.BlockStmt) bool {
	obj := pass.Pkg.Info.ObjectOf(id)
	if obj == nil {
		return true
	}
	return obj.Pos() < body.Pos() || obj.Pos() > body.End()
}
