package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floatHotPkgs are the float32 hot paths where accumulation width and order
// are part of the bitwise contract (DESIGN.md, "GEMM blocking and the
// bitwise contract").
var floatHotPkgs = []string{"internal/kernels", "internal/nn", "internal/tensor"}

// FloatWiden returns the floatwiden analyzer. In the kernel/nn hot paths it
// flags float32→float64 *accumulation* — a float64 scalar folded over
// widened float32 values — and any math.FMA call. Both produce results no
// float32-accumulating reference can reproduce bitwise, across GOARCHes or
// against the vector micro-kernel. Pointwise widening (float32(math.Exp(
// float64(x)))) is exempt: it rounds through the same software path on every
// host, element by element.
func FloatWiden(hot ...string) *Analyzer {
	if len(hot) == 0 {
		hot = floatHotPkgs
	}
	a := &Analyzer{
		Name: "floatwiden",
		Doc:  "float32→float64 accumulation or math.FMA in bitwise-contract hot paths",
	}
	a.Run = func(pass *Pass) {
		if !pkgMatchesAny(pass.Pkg, hot) {
			return
		}
		for _, f := range pass.Pkg.Files {
			// variables bound to widened float32 values (xv := float64(v))
			wideVars := map[types.Object]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.CallExpr:
					if fn := calleeFunc(pass.Pkg.Info, s); isPkgFunc(fn, "math") && fn.Name() == "FMA" {
						pass.Report(s.Pos(), "math.FMA fuses the multiply-add rounding; the bitwise contract requires two separate float32 roundings")
					}
				case *ast.AssignStmt:
					checkWidenAssign(pass, s, wideVars)
				}
				return true
			})
		}
	}
	return a
}

// checkWidenAssign flags float64 accumulation fed by widened float32 values
// and records idents defined as widening conversions.
func checkWidenAssign(pass *Pass, s *ast.AssignStmt, wideVars map[types.Object]bool) {
	info := pass.Pkg.Info
	feeds := func(e ast.Expr) bool {
		return containsWidening(pass, e) || usesAny(info, e, wideVars)
	}
	switch s.Tok {
	case token.DEFINE:
		for i, rhs := range s.Rhs {
			if i >= len(s.Lhs) {
				break
			}
			if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name != "_" && isWideningConv(pass, rhs) {
				wideVars[info.ObjectOf(id)] = true
			}
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(s.Lhs) == 1 && basic(info.TypeOf(s.Lhs[0])).Kind() == types.Float64 && feeds(s.Rhs[0]) {
			pass.Report(s.Pos(), "float32 values accumulated in float64 %s; accumulation width is part of the bitwise contract — accumulate in float32 (or annotate the D2 exception)", types.ExprString(s.Lhs[0]))
		}
	case token.ASSIGN:
		// x = x + float64(v) spelled out
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return
		}
		lhs, ok := s.Lhs[0].(*ast.Ident)
		if !ok || basic(info.TypeOf(lhs)).Kind() != types.Float64 {
			return
		}
		bin, ok := s.Rhs[0].(*ast.BinaryExpr)
		if !ok || !usesAny(info, bin, map[types.Object]bool{info.ObjectOf(lhs): true}) || !feeds(bin) {
			return
		}
		pass.Report(s.Pos(), "float32 values accumulated in float64 %s; accumulation width is part of the bitwise contract — accumulate in float32 (or annotate the D2 exception)", lhs.Name)
	}
}

// isWideningConv reports whether e is float64(x) with x a float32 value.
func isWideningConv(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	tv := pass.Pkg.Info.Types[call.Fun]
	return tv.IsType() && basic(tv.Type).Kind() == types.Float64 && basic(pass.Pkg.Info.TypeOf(call.Args[0])).Kind() == types.Float32
}

func containsWidening(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if ex, ok := n.(ast.Expr); ok && isWideningConv(pass, ex) {
			found = true
		}
		return !found
	})
	return found
}

// usesAny reports whether e refers to any of objs: objects, not names, so a
// variable of one function never stands for a namesake in another, and the
// field in x.f is never the variable f.
func usesAny(info *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}
