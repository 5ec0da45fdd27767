package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathDirective marks a function as part of the TrainStep closure set:
// the per-step code whose allocation count is pinned to zero by the
// testing.AllocsPerRun benchmarks. The annotation is the contract; this
// analyzer is its path-insensitive enforcement.
const hotpathDirective = "//easyscale:hotpath"

// heapTensorCtors are the constructors, by package, that take tensors'
// headers and data from the heap: the tensor package's, and nn's parameter
// builder, which carves a net's blocks.
var heapTensorCtors = map[string]map[string]bool{
	"repro/internal/tensor": {"New": true, "NewBlock": true, "NewCarver": true, "FromData": true},
	"repro/internal/nn":     {"NewBuilder": true},
}

// HotAlloc returns the hotalloc analyzer: a function annotated
// //easyscale:hotpath must not allocate. Flagged inside such a function:
//
//   - make / new
//   - append (growth allocates; pre-sized buffers come from the pool)
//   - composite literals of slice or map type, and &T{...} — value struct
//     and array literals stay on the stack and are allowed
//   - string concatenation
//   - function literals (closure allocation)
//   - fmt calls (formatting allocates and boxes every operand)
//   - boxing: a concrete value converted to an interface type, or landing
//     in an interface-typed argument, assignment or return (constants and
//     pointer-shaped values fit the interface word and are exempt)
//   - the heap tensor constructors tensor.New, NewBlock, NewCarver and
//     FromData and nn.NewBuilder, whose headers (and data) come from the heap
//
// A block that ends in a call of panic is the crash-out path and is not
// checked. pool.Get / pool.GetUninit are the sanctioned amortized-allocation
// escape hatch and are exempt; poolbalance polices their release. So are the
// scoped tensor constructors (tensor.NewScoped, NewScopedUninit,
// CloneScoped), whose header and buffer come from the step's pool.Scope.
func HotAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "allocation inside a function annotated //easyscale:hotpath",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isHotpath(fd.Doc) {
					continue
				}
				checkHotAlloc(pass, fd)
			}
		}
	}
	return a
}

func isHotpath(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == hotpathDirective {
			return true
		}
	}
	return false
}

func checkHotAlloc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	results := info.Defs[fd.Name].Type().(*types.Signature).Results()
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			if n != fd.Body && endsInPanic(info, n) {
				return false
			}
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; tv.IsType() {
				if len(n.Args) == 1 && boxes(info, tv.Type, n.Args[0]) {
					pass.Report(n.Pos(), "hot path allocates: conversion to %s boxes the operand", types.ExprString(n.Fun))
				}
				return true
			}
			if b := builtinName(info, n); b != "" {
				switch b {
				case "make":
					pass.Report(n.Pos(), "hot path allocates: make (draw from the pool outside the hot path)")
				case "new":
					pass.Report(n.Pos(), "hot path allocates: new")
				case "append":
					pass.Report(n.Pos(), "hot path allocates: append growth (pre-size the buffer outside the hot path)")
				}
				return true
			}
			fn := calleeFunc(info, n)
			switch {
			case isPkgFunc(fn, "fmt"):
				pass.Report(n.Pos(), "hot path allocates: fmt.%s formats and boxes every operand", fn.Name())
				return true
			case fn != nil && fn.Pkg() != nil && heapTensorCtors[fn.Pkg().Path()][fn.Name()] && isPkgFunc(fn, fn.Pkg().Path()):
				pass.Report(n.Pos(), "hot path allocates: %s.%s takes its header from the heap (use the scoped constructor)", fn.Pkg().Name(), fn.Name())
			}
			if sig, ok := info.TypeOf(n.Fun).Underlying().(*types.Signature); ok {
				params := sig.Params()
				for i, arg := range n.Args {
					var pt types.Type
					switch {
					case sig.Variadic() && i >= params.Len()-1 && !n.Ellipsis.IsValid():
						pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
					case i < params.Len():
						pt = params.At(i).Type()
					}
					reportBoxing(pass, pt, arg, "argument")
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					reportBoxing(pass, info.TypeOf(lhs), n.Rhs[i], "assignment")
				}
			}
		case *ast.ReturnStmt:
			if len(n.Results) == results.Len() {
				for i, r := range n.Results {
					reportBoxing(pass, results.At(i).Type(), r, "return")
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Report(n.Pos(), "hot path allocates: slice/map composite literal")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := n.X.(*ast.CompositeLit); isLit {
					pass.Report(n.Pos(), "hot path allocates: &composite literal escapes to the heap")
					return false // don't double-report the literal itself
				}
			}
		case *ast.BinaryExpr:
			if tv := info.Types[n]; n.Op == token.ADD && tv.Value == nil && basic(tv.Type).Info()&types.IsString != 0 {
				pass.Report(n.Pos(), "hot path allocates: string concatenation")
			}
		case *ast.FuncLit:
			pass.Report(n.Pos(), "hot path allocates: function literal (closure)")
			return false
		case *ast.GoStmt:
			pass.Report(n.Pos(), "hot path allocates: go statement spawns a goroutine")
		}
		return true
	})
}

// reportBoxing flags a concrete value landing in an interface-typed slot.
func reportBoxing(pass *Pass, slot types.Type, e ast.Expr, where string) {
	if slot != nil && boxes(pass.Pkg.Info, slot, e) {
		name := func(p *types.Package) string { return p.Name() }
		pass.Report(e.Pos(), "hot path allocates: %s %s boxed into %s", types.TypeString(pass.Pkg.Info.TypeOf(e), name), where, types.TypeString(slot, name))
	}
}

// boxes reports whether storing e in a slot of type slot allocates: the slot
// is an interface, and e is a concrete, non-constant value whose type is not
// pointer-shaped.
func boxes(info *types.Info, slot types.Type, e ast.Expr) bool {
	tv := info.Types[e]
	return types.IsInterface(slot) && tv.Type != nil && !types.IsInterface(tv.Type) &&
		tv.Value == nil && !tv.IsNil() && !pointerShaped(tv.Type)
}

// pointerShaped reports whether a value of type t is one machine pointer —
// a pointer, map, chan, func, or a struct or one-element array holding only
// such a value — and so is stored in an interface word without allocating.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		return u.NumFields() == 1 && pointerShaped(u.Field(0).Type())
	case *types.Array:
		return u.Len() == 1 && pointerShaped(u.Elem())
	}
	return false
}

// endsInPanic reports whether block's last statement is a call of panic: the
// crash-out path, which is not part of the hot path.
func endsInPanic(info *types.Info, block *ast.BlockStmt) bool {
	if len(block.List) == 0 {
		return false
	}
	es, ok := block.List[len(block.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	return ok && builtinName(info, call) == "panic"
}
