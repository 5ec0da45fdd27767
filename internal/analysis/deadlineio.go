package analysis

import (
	"go/ast"
	"go/types"
)

// deadlineIOScope is the networked surface: every blocking socket operation
// there must carry a deadline (PR 2's contract), so a hung peer surfaces as
// an error instead of wedging the runtime.
var deadlineIOScope = []string{"internal/dist", "internal/serve"}

// DeadlineIO returns the deadlineio analyzer. Within the scoped packages it
// flags:
//
//   - net.Dial — always; it has no timeout at all (use net.DialTimeout and
//     arm per-operation deadlines on the result)
//   - net.DialTimeout, and Accept on a value that implements net.Listener,
//     in functions that arm no deadline
//   - Read/Write on a raw conn — a value of a type from package net that
//     implements net.Conn — again in functions that arm no deadline
//
// A function arms a deadline when it calls SetDeadline, SetReadDeadline or
// SetWriteDeadline on a value that implements net.Conn or net.Listener.
func DeadlineIO(scope ...string) *Analyzer {
	if len(scope) == 0 {
		scope = deadlineIOScope
	}
	a := &Analyzer{
		Name: "deadlineio",
		Doc:  "raw net.Conn dial/accept/read/write that no deadline bounds",
	}
	a.Run = func(pass *Pass) {
		if !pkgMatchesAny(pass.Pkg, scope) {
			return
		}
		for _, net := range pass.Pkg.TypesPkg.Imports() {
			if net.Path() != "net" {
				continue // no raw socket without importing net
			}
			conn := net.Scope().Lookup("Conn").Type().Underlying().(*types.Interface)
			listener := net.Scope().Lookup("Listener").Type().Underlying().(*types.Interface)
			for _, f := range pass.Pkg.Files {
				funcBodies(f, func(_ *ast.FuncType, body *ast.BlockStmt, _ *ast.CommentGroup) {
					checkDeadlines(pass, body, conn, listener)
				})
			}
		}
	}
	return a
}

func checkDeadlines(pass *Pass, body *ast.BlockStmt, conn, listener *types.Interface) {
	info := pass.Pkg.Info
	armed := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if recv, name := methodCall(info, call); recv != nil && (implements(recv, conn) || implements(recv, listener)) {
				armed = armed || name == "SetDeadline" || name == "SetReadDeadline" || name == "SetWriteDeadline"
			}
		}
		return !armed
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its own function; analyzed separately
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(info, call); isPkgFunc(fn, "net") {
			switch fn.Name() {
			case "Dial":
				pass.Report(call.Pos(), "net.Dial has no timeout; use net.DialTimeout and arm per-operation deadlines on the connection")
			case "DialTimeout":
				if !armed {
					pass.Report(call.Pos(), "net.DialTimeout bounds only the dial; arm per-operation deadlines on the connection (SetDeadline or a deadline-wrapping conn)")
				}
			}
			return true
		}
		recv, name := methodCall(info, call)
		if recv == nil || armed {
			return true
		}
		switch name {
		case "Accept":
			if implements(recv, listener) {
				pass.Report(call.Pos(), "Accept with no deadline in sight; bound it with the listener's SetDeadline or wrap the accepted conn with per-operation deadlines")
			}
		case "Read", "Write":
			if fromPackage(recv, "net") && implements(recv, conn) {
				pass.Report(call.Pos(), "%s on a raw net.Conn that no deadline bounds; route it through a deadline-wrapping conn or SetDeadline first", name)
			}
		}
		return true
	})
}

// methodCall returns the receiver type and method name of a method call.
func methodCall(info *types.Info, call *ast.CallExpr) (types.Type, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return nil, ""
	}
	return s.Recv(), sel.Sel.Name
}

// implements reports whether t, or a pointer to it, implements iface.
func implements(t types.Type, iface *types.Interface) bool {
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

// fromPackage reports whether t, or the type it points to, is a named type
// declared in the package with import path pkgPath.
func fromPackage(t types.Type, pkgPath string) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkgPath
}

// namedOf returns the named type t is or points to, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
