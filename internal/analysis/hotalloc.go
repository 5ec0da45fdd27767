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

// tensorImportPath is the tensor package, and heapTensorCtors its
// constructors that take a tensor's header from the heap.
const tensorImportPath = "repro/internal/tensor"

var heapTensorCtors = map[string]bool{"New": true, "Full": true, "FromData": true}

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
//   - conversions to `any`/`interface{}` (explicit boxing)
//   - the heap tensor constructors tensor.New, Full and FromData, whose
//     header (and data) come from the heap
//
// pool.Get / pool.GetUninit are the sanctioned amortized-allocation escape
// hatch and are exempt; poolbalance polices their release. So are the scoped
// tensor constructors (tensor.NewScoped, NewScopedUninit, CloneScoped), whose
// header and buffer come from the step's pool.Scope.
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
				checkHotAlloc(pass, fd.Body)
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

func checkHotAlloc(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				switch fun.Name {
				case "make":
					pass.Report(n.Pos(), "hot path allocates: make (draw from the pool outside the hot path)")
				case "new":
					pass.Report(n.Pos(), "hot path allocates: new")
				case "append":
					pass.Report(n.Pos(), "hot path allocates: append growth (pre-size the buffer outside the hot path)")
				case "any":
					pass.Report(n.Pos(), "hot path allocates: conversion to any boxes the operand")
				}
			case *ast.SelectorExpr:
				switch p, name, _ := pass.ImportedSelector(fun); {
				case p == "fmt":
					pass.Report(n.Pos(), "hot path allocates: fmt.%s formats and boxes every operand", name)
				case p == tensorImportPath && heapTensorCtors[name]:
					pass.Report(n.Pos(), "hot path allocates: tensor.%s takes its header from the heap (use the scoped constructor)", name)
				}
			case *ast.InterfaceType:
				pass.Report(n.Pos(), "hot path allocates: conversion to interface{} boxes the operand")
			}
		case *ast.CompositeLit:
			if isSliceOrMapLit(pass, n) {
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
			if n.Op == token.ADD && (isStringOperand(pass, n.X) || isStringOperand(pass, n.Y)) {
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

// isSliceOrMapLit reports whether lit builds a slice or map. Value struct
// and array literals are allowed (stack-allocated); the type is read
// syntactically first, with checked types as fallback for named types.
func isSliceOrMapLit(pass *Pass, lit *ast.CompositeLit) bool {
	switch t := lit.Type.(type) {
	case *ast.ArrayType:
		return t.Len == nil // []T{...} is a slice; [N]T{...} an array
	case *ast.MapType:
		return true
	case nil:
		return false // inner literal of a surrounding composite; typed by it
	}
	if t := pass.Pkg.TypeOf(lit); t != nil {
		switch t.Underlying().(type) {
		case *types.Slice, *types.Map:
			return true
		}
	}
	return false
}

func isStringOperand(pass *Pass, e ast.Expr) bool {
	if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
		return true
	}
	if t := pass.Pkg.TypeOf(e); t != nil {
		if b, ok := t.Underlying().(*types.Basic); ok {
			return b.Info()&types.IsString != 0
		}
	}
	return false
}
