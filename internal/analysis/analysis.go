// Package analysis is detlint's engine: a stdlib-only static-analysis
// framework (go/ast + go/types, no go/packages; the standard library is
// typed from the compiler's export data) with ten analyzers that enforce the
// repo's bitwise-consistency and resource/safety contracts (DESIGN.md,
// "Static enforcement of the determinism contract"). The analyzers match
// types.Objects — the *types.Func of time.Now, the net.Conn interface — not
// names:
//
//	maporder      — range over a map in an ordering-sensitive package
//	rawrand       — math/rand or wall-clock-seeded randomness outside internal/rng
//	walltime      — time.Now/Since steering decisions outside allow-listed packages
//	chanorder     — goroutine results drained in completion order
//	floatwiden    — float64 accumulation or math.FMA in float32 kernel hot paths
//	poolbalance   — pool.Get buffer that can exit a function without Put or handoff
//	boundeddecode — allocation sized by a decoded count with no preceding bound
//	deadlineio    — raw net.Conn dial/accept/read/write that no deadline bounds
//	spanbalance   — obs span begin that can exit a function without its end
//	hotalloc      — allocation inside a function annotated //easyscale:hotpath
//
// A diagnostic is suppressible only by an adjacent
//
//	//detlint:ignore <analyzer>[,<analyzer>...] -- <reason>
//
// directive. The reason is mandatory, so every sanctioned non-determinism
// injection point is a searchable, audited annotation; a directive with no
// reason, an unknown analyzer name, or nothing left to suppress is itself a
// diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one determinism check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Report records a diagnostic at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// funcUses calls visit for every reference to a function or method under
// root, called or taken as a value. A package-qualified reference (time.Now)
// is reported at its qualifier, where the expression starts.
func funcUses(info *types.Info, root ast.Node, visit func(pos token.Pos, fn *types.Func)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if _, isPkg := info.Uses[identOf(n.X)].(*types.PkgName); !isPkg {
				return true
			}
			if fn, ok := info.Uses[n.Sel].(*types.Func); ok {
				visit(n.Pos(), fn)
			}
			return false
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok {
				visit(n.Pos(), fn)
			}
		}
		return true
	})
}

// isPkgFunc reports whether fn is a package-level function of the package
// whose import path is pkgPath.
func isPkgFunc(fn *types.Func, pkgPath string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Type().(*types.Signature).Recv() == nil
}

// calleeFunc returns the function or method call invokes; nil for a builtin,
// a conversion, or a call of a func value.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, _ := info.Uses[identOf(call.Fun)].(*types.Func)
	return fn
}

// builtinName is the name of the builtin call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	if b, ok := info.Uses[identOf(call.Fun)].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// identOf is the identifier e names (the selector's for x.f), or nil.
func identOf(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// DefaultAnalyzers returns the full suite with its default package scoping.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		MapOrder(), RawRand(), WallTime(), ChanOrder(), FloatWiden(),
		PoolBalance(), BoundedDecode(), DeadlineIO(), SpanBalance(), HotAlloc(),
	}
}

// Run executes the analyzers over the packages, applies ignore directives,
// and returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{}
	for _, a := range DefaultAnalyzers() {
		known[a.Name] = true
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
		ran[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
		}
		out = append(out, applyDirectives(pkg, diags, known, ran)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out
}

// pkgMatchesAny reports whether the package matches any selector. A selector
// matches on exact path, path suffix ("internal/sched" matches
// "repro/internal/sched"), package name, or path base.
func pkgMatchesAny(pkg *Package, sels []string) bool {
	for _, sel := range sels {
		if pkg.Path == sel || strings.HasSuffix(pkg.Path, "/"+sel) ||
			pkg.Name == sel || path.Base(pkg.Path) == sel {
			return true
		}
	}
	return false
}

// --- shared expression predicates ----------------------------------------

// pureExpr reports whether e is side-effect-free: no calls other than len,
// cap, and type conversions; no receives; no function literals.
func pureExpr(pkg *Package, e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if b := builtinName(pkg.Info, v); b != "len" && b != "cap" && !pkg.Info.Types[v.Fun].IsType() {
				pure = false // a call, not len, cap or a type conversion
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				pure = false
			}
		case *ast.FuncLit:
			pure = false
		}
		return pure
	})
	return pure
}

// constOrNil reports whether e is a constant or the predeclared nil.
func constOrNil(info *types.Info, e ast.Expr) bool {
	tv := info.Types[e]
	return tv.Value != nil || tv.IsNil()
}

// basic returns t's underlying basic type; Typ[Invalid] for any other type.
func basic(t types.Type) *types.Basic {
	if t != nil {
		if b, ok := t.Underlying().(*types.Basic); ok {
			return b
		}
	}
	return types.Typ[types.Invalid]
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
