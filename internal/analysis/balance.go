package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// balance.go is the shared must-reach walker behind poolbalance and
// spanbalance. A variable is bound to a resource at one statement (a pool
// buffer, a span begin timestamp); every path from that statement to a
// function exit must either consume the resource (a release/end call) or
// visibly hand it off (return it, store it, capture it in a closure). The
// walk is structural — statements in order, branch states merged — not a
// real CFG: goto and labeled break terminate a path without judgment, and a
// loop body's resolution is trusted even though the loop may run zero times.
// The engine errs toward silence; what it does report is a path you can read
// straight off the source.

// binding is one tracked resource variable.
type binding struct {
	name string
	obj  types.Object
	pos  token.Pos // the bind site; diagnostics anchor here
}

// refsBinding reports whether e mentions the bound variable.
func refsBinding(info *types.Info, e ast.Expr, v *binding) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v.obj {
			found = true
		}
		return !found
	})
	return found
}

// balanceSpec configures the walker for one analyzer.
type balanceSpec struct {
	what     string // noun for diagnostics, e.g. `pool.Get buffer`
	requires string // what every path must do, e.g. `pool.Put or an explicit handoff`
	// consume reports whether call releases/ends the bound resource.
	consume func(pass *Pass, call *ast.CallExpr, v *binding) bool
	// anyCallArgConsumes treats passing v as a plain call argument as
	// consumption (span ends are ordinary calls taking the start timestamp).
	anyCallArgConsumes bool
	// exemptReturn, when non-nil, reports returns allowed to drop the
	// resource (spanbalance exempts error-bearing returns).
	exemptReturn func(info *types.Info, ft *ast.FuncType, ret *ast.ReturnStmt) bool
}

// bstate is the walker's per-path state.
type bstate struct {
	resolved   bool // consumed or handed off; tracking satisfied
	terminated bool // path ended (return, panic, branch)
}

func (s bstate) done() bool { return s.resolved || s.terminated }

// leak is one exit that drops the resource.
type leak struct {
	pos  token.Pos
	desc string
}

type balanceWalker struct {
	pass  *Pass
	spec  *balanceSpec
	ft    *ast.FuncType
	v     *binding
	leaks []leak
}

// checkBalance walks fn's body from the statement binding v and reports (at
// the bind site) the first path that drops the resource.
func checkBalance(pass *Pass, spec *balanceSpec, ft *ast.FuncType, body *ast.BlockStmt, bind ast.Stmt, v *binding) {
	w := &balanceWalker{pass: pass, spec: spec, ft: ft, v: v}
	path := pathToStmt(body.List, bind)
	if path == nil {
		return // bind inside a nested function literal; analyzed there
	}
	var st bstate
	for level := len(path) - 1; level >= 0; level-- {
		step := path[level]
		st = w.seq(step.list[step.idx+1:], st)
		if st.done() {
			break
		}
	}
	if !st.done() {
		w.leakAt(body.End(), "the end of the function")
	}
	if len(w.leaks) > 0 {
		first := w.leaks[0]
		where := first.desc
		if first.desc == "" {
			where = "an exit"
		}
		pass.Report(v.pos, "%s %q can reach %s without %s", spec.what, v.name, where, spec.requires)
	}
}

func (w *balanceWalker) leakAt(pos token.Pos, desc string) {
	if desc == "the end of the function" {
		w.leaks = append(w.leaks, leak{pos: pos, desc: desc})
		return
	}
	p := w.pass.Pkg.Fset.Position(pos)
	w.leaks = append(w.leaks, leak{pos: pos, desc: desc + " (line " + strconv.Itoa(p.Line) + ")"})
}

// pathStep is one level of the statement-list chain from the function body
// down to the binding statement.
type pathStep struct {
	list []ast.Stmt
	idx  int
}

// pathToStmt locates target within list (recursing through block-bearing
// statements but never into function literals) and returns the chain of
// statement lists leading to it, outermost first.
func pathToStmt(list []ast.Stmt, target ast.Stmt) []pathStep {
	for i, s := range list {
		if s == target {
			return []pathStep{{list: list, idx: i}}
		}
		for _, sub := range subLists(s) {
			if p := pathToStmt(sub, target); p != nil {
				return append([]pathStep{{list: list, idx: i}}, p...)
			}
		}
	}
	return nil
}

// subLists returns the statement lists nested directly inside s.
func subLists(s ast.Stmt) [][]ast.Stmt {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return [][]ast.Stmt{s.List}
	case *ast.IfStmt:
		out := [][]ast.Stmt{s.Body.List}
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			out = append(out, e.List)
		case *ast.IfStmt:
			out = append(out, []ast.Stmt{e})
		}
		return out
	case *ast.ForStmt:
		return [][]ast.Stmt{s.Body.List}
	case *ast.RangeStmt:
		return [][]ast.Stmt{s.Body.List}
	case *ast.SwitchStmt:
		return clauseLists(s.Body)
	case *ast.TypeSwitchStmt:
		return clauseLists(s.Body)
	case *ast.SelectStmt:
		return clauseLists(s.Body)
	case *ast.LabeledStmt:
		return [][]ast.Stmt{{s.Stmt}}
	}
	return nil
}

func clauseLists(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			out = append(out, c.Body)
		case *ast.CommClause:
			out = append(out, c.Body)
		}
	}
	return out
}

// seq walks a statement list in order.
func (w *balanceWalker) seq(list []ast.Stmt, st bstate) bstate {
	for _, s := range list {
		if st.done() {
			return st
		}
		st = w.stmt(s, st)
	}
	return st
}

func (w *balanceWalker) stmt(s ast.Stmt, st bstate) bstate {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return w.expr(s.X, st)
	case *ast.AssignStmt:
		return w.assign(s, st)
	case *ast.ReturnStmt:
		return w.ret(s, st)
	case *ast.DeferStmt:
		if w.spec.consume != nil && w.spec.consume(w.pass, s.Call, w.v) {
			st.resolved = true
			return st
		}
		if w.refs(s.Call) {
			st.resolved = true // handed off to the deferred call
		}
		return st
	case *ast.GoStmt:
		if w.refs(s.Call) {
			st.resolved = true // handed off to the goroutine
		}
		return st
	case *ast.SendStmt:
		st = w.expr(s.Chan, st)
		if st.done() {
			return st
		}
		if w.refs(s.Value) {
			st.resolved = true // handed off over the channel
		}
		return st
	case *ast.IfStmt:
		return w.ifStmt(s, st)
	case *ast.BlockStmt:
		return w.seq(s.List, st)
	case *ast.ForStmt:
		return w.loop(s.Cond, s.Body, st)
	case *ast.RangeStmt:
		st = w.expr(s.X, st)
		if st.done() {
			return st
		}
		return w.loop(nil, s.Body, st)
	case *ast.SwitchStmt:
		return w.switchStmt(s.Init, s.Tag, s.Body, true, st)
	case *ast.TypeSwitchStmt:
		return w.switchStmt(s.Init, nil, s.Body, true, st)
	case *ast.SelectStmt:
		// exactly one clause runs; there is no skip path
		return w.switchStmt(nil, nil, s.Body, false, st)
	case *ast.BranchStmt:
		// break/continue/goto leave the structural walk; end the path
		// without judgment rather than invent a target
		st.terminated = true
		return st
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						st = w.expr(val, st)
						if st.done() {
							return st
						}
						if w.refsDirect(val) {
							st.resolved = true // aliased into a new variable
							return st
						}
					}
				}
			}
		}
		return st
	case *ast.IncDecStmt, *ast.EmptyStmt:
		return st
	}
	return st
}

func (w *balanceWalker) assign(s *ast.AssignStmt, st bstate) bstate {
	for _, r := range s.Rhs {
		st = w.expr(r, st)
		if st.done() {
			return st
		}
	}
	directRefs := false // v outside call arguments: it can flow into the LHS
	anyRefs := false
	for _, r := range s.Rhs {
		if w.refsDirect(r) {
			directRefs = true
		}
		if w.refs(r) {
			anyRefs = true
		}
	}
	allBlank := true
	for _, l := range s.Lhs {
		if !isBlank(l) {
			allBlank = false
		}
	}
	lhsIsOnlyV := len(s.Lhs) == 1 && w.isV(s.Lhs[0])
	if directRefs && !lhsIsOnlyV {
		if allBlank {
			return st // `_ = v` is a discard, not a handoff
		}
		st.resolved = true // aliased or stored somewhere visible
		return st
	}
	if !anyRefs {
		for _, l := range s.Lhs {
			if w.isV(l) {
				// the binding is overwritten while still held
				w.leakAt(s.Pos(), "being overwritten")
				st.resolved = true
				return st
			}
		}
	}
	return st
}

func (w *balanceWalker) ret(s *ast.ReturnStmt, st bstate) bstate {
	for _, r := range s.Results {
		st = w.expr(r, st)
		if st.done() {
			return st
		}
	}
	for _, r := range s.Results {
		if w.refsDirect(r) {
			st.resolved = true // escapes to the caller
			return st
		}
	}
	if w.spec.exemptReturn != nil && w.spec.exemptReturn(w.pass.Pkg.Info, w.ft, s) {
		st.terminated = true
		return st
	}
	w.leakAt(s.Pos(), "the return")
	st.terminated = true
	return st
}

func (w *balanceWalker) ifStmt(s *ast.IfStmt, st bstate) bstate {
	if s.Init != nil {
		st = w.stmt(s.Init, st)
		if st.done() {
			return st
		}
	}
	st = w.expr(s.Cond, st)
	if st.done() {
		return st
	}
	// nil-check narrowing: on the branch where v is statically nil there is
	// nothing to release (`if v != nil { pool.Put(v) }` balances)
	narrowThen := w.isNilCheck(s.Cond, token.EQL) // then-branch: v == nil
	narrowElse := w.isNilCheck(s.Cond, token.NEQ) // else-branch: v == nil

	thenSt := st
	if narrowThen {
		thenSt.resolved = true
	} else {
		thenSt = w.seq(s.Body.List, st)
	}
	elseSt := st
	if narrowElse {
		elseSt.resolved = true
	} else {
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			elseSt = w.seq(e.List, st)
		case *ast.IfStmt:
			elseSt = w.stmt(e, st)
		}
	}
	thenFalls := !thenSt.terminated
	elseFalls := !elseSt.terminated
	if !thenFalls && !elseFalls {
		st.terminated = true
		return st
	}
	st.resolved = (!thenFalls || thenSt.resolved) && (!elseFalls || elseSt.resolved)
	return st
}

// isNilCheck reports whether cond is `v <op> nil` (or the mirror) for the
// tracked variable.
func (w *balanceWalker) isNilCheck(cond ast.Expr, op token.Token) bool {
	b, ok := cond.(*ast.BinaryExpr)
	if !ok || b.Op != op {
		return false
	}
	info := w.pass.Pkg.Info
	return (w.isV(b.X) && info.Types[b.Y].IsNil()) || (w.isV(b.Y) && info.Types[b.X].IsNil())
}

func (w *balanceWalker) loop(cond ast.Expr, body *ast.BlockStmt, st bstate) bstate {
	if cond != nil {
		st = w.expr(cond, st)
		if st.done() {
			return st
		}
	}
	bodySt := w.seq(body.List, st)
	if bodySt.resolved {
		// lenient: trust in-loop resolution even though the loop may run
		// zero times — demanding post-loop proof would flag every
		// release-in-range pattern
		st.resolved = true
	}
	return st
}

func (w *balanceWalker) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, canSkip bool, st bstate) bstate {
	if init != nil {
		st = w.stmt(init, st)
		if st.done() {
			return st
		}
	}
	if tag != nil {
		st = w.expr(tag, st)
		if st.done() {
			return st
		}
	}
	hasDefault := false
	anyFalls := false
	fellUnresolved := false
	for _, c := range body.List {
		var clauseBody []ast.Stmt
		commResolved := false
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			clauseBody = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else if w.stmt(c.Comm, st).resolved {
				commResolved = true // the comm itself handed the resource off
			}
			clauseBody = c.Body
		}
		cs := w.seq(clauseBody, st)
		if commResolved {
			cs.resolved = true
		}
		if !cs.terminated {
			anyFalls = true
			if !cs.resolved {
				fellUnresolved = true
			}
		}
	}
	if !canSkip {
		hasDefault = true // a select always runs one clause
	}
	if len(body.List) > 0 && hasDefault && !anyFalls {
		st.terminated = true
		return st
	}
	st.resolved = len(body.List) > 0 && hasDefault && anyFalls && !fellUnresolved
	return st
}

// expr scans one expression for consumption, handoff, and panic.
func (w *balanceWalker) expr(e ast.Expr, st bstate) bstate {
	ast.Inspect(e, func(n ast.Node) bool {
		if st.done() {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				switch id.Name {
				case "panic":
					st.terminated = true
					return false
				case "append":
					// appended into another slice: stored, visible handoff
					for _, a := range n.Args[1:] {
						if w.refs(a) {
							st.resolved = true
							return false
						}
					}
					return true
				}
			}
			if w.spec.consume != nil && w.spec.consume(w.pass, n, w.v) {
				st.resolved = true
				return false
			}
			if w.spec.anyCallArgConsumes {
				for _, a := range n.Args {
					if w.refs(a) {
						st.resolved = true
						return false
					}
				}
			}
		case *ast.FuncLit:
			if w.refs(n) {
				st.resolved = true // captured by a closure
			}
			return false
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if w.refs(elt) {
					st.resolved = true // stored in a literal
					return false
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && w.refs(n.X) {
				st.resolved = true // address taken
				return false
			}
		}
		return true
	})
	return st
}

func (w *balanceWalker) isV(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && w.pass.Pkg.Info.ObjectOf(id) == w.v.obj
}

// refsDirect reports whether n mentions v outside call expressions — the
// positions from which v itself (not a derived result) can flow onward.
func (w *balanceWalker) refsDirect(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if _, ok := x.(*ast.CallExpr); ok {
			return false // a call's result derives from v; expr() judged its args
		}
		if id, ok := x.(*ast.Ident); ok && w.isV(id) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (w *balanceWalker) refs(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if e, ok := x.(ast.Expr); ok {
			if id, isID := e.(*ast.Ident); isID && w.isV(id) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// funcBodies yields every function body in the file: declarations and
// literals, each paired with its own type so nested literals are analyzed
// independently of their enclosing function.
func funcBodies(f *ast.File, visit func(ft *ast.FuncType, body *ast.BlockStmt, doc *ast.CommentGroup)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visit(n.Type, n.Body, n.Doc)
			}
		case *ast.FuncLit:
			visit(n.Type, n.Body, nil)
		}
		return true
	})
}

// bindingFor builds a binding for a single-ident assignment LHS.
func bindingFor(pkg *Package, lhs ast.Expr, pos token.Pos) *binding {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return &binding{name: id.Name, obj: pkg.Info.ObjectOf(id), pos: pos}
}
