package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// orderSensitivePkgs are the packages whose outputs feed numeric results,
// wire protocols, or scheduling decisions, where Go's randomized map
// iteration order is a reproducibility hazard (the D0 contract).
var orderSensitivePkgs = []string{
	"internal/core", "internal/comm", "internal/sched", "internal/kernels",
	"internal/nn", "internal/optim", "internal/tensor", "internal/elastic",
	// serve: batch composition is provably numerics-invariant, but flush
	// order and autoscaler decisions must stay deterministic — replica
	// planning over a map of deployments would reorder scale events
	"internal/serve",
	// controlplane: lease minting, sponsor choice, and preemption order all
	// feed the byte-identical decision log the determinism test pins
	"internal/controlplane",
	// cluster: the trace experiment's averages are float sums, whose bits
	// follow the order they are summed in
	"internal/cluster",
}

// MapOrder returns the maporder analyzer: it flags `range` over a map in an
// ordering-sensitive package unless the loop body is provably
// order-insensitive. The fix is to iterate a sorted key slice (or
// device.AllTypes()) instead; a deliberate exception needs
// //detlint:ignore maporder -- <reason>.
//
// Two loop shapes are proven order-insensitive and exempted:
//
//   - pure probe: every statement is `if <pure cond> { return <constants> }` —
//     an exists/forall predicate whose answer cannot depend on visit order;
//   - commutative update: every statement is an integer ++/--/+=/-=/*=/&=/|=/^=
//     (exact in ℤ, so reordering is invisible), a write to a cell indexed by
//     the loop key (distinct keys, one write each), a delete, or an if/continue
//     composed of the same — optionally guarded by pure conditions.
//
// Everything else — float accumulation, max/min tracking, last-write-wins
// assignments, appends, calls — is reported, because its result (or its
// bitwise identity, for floats) depends on iteration order.
func MapOrder(sensitive ...string) *Analyzer {
	if len(sensitive) == 0 {
		sensitive = orderSensitivePkgs
	}
	a := &Analyzer{
		Name: "maporder",
		Doc:  "range over a map in an ordering-sensitive package",
	}
	a.Run = func(pass *Pass) {
		if !pkgMatchesAny(pass.Pkg, sensitive) {
			return
		}
		for _, f := range pass.Pkg.Files {
			sorted := sortedSliceIdents(pass, f)
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.Pkg.Info.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if orderInsensitiveRange(pass.Pkg, rs) || keyCollectionSorted(rs, sorted) {
					return true
				}
				pass.Report(rs.For, "range over map %s has no deterministic iteration order; iterate sorted keys (or device.AllTypes()) instead", types.ExprString(rs.X))
				return true
			})
		}
	}
	return a
}

// sortedSliceIdents collects the identifiers the file hands to a sort or
// slices call — the "keys are sorted first" half of the canonical fix.
func sortedSliceIdents(pass *Pass, f *ast.File) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pass.Pkg.Info, call); isPkgFunc(fn, "sort") || isPkgFunc(fn, "slices") {
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						out[id.Name] = true
					}
					return true
				})
			}
		}
		return true
	})
	return out
}

// keyCollectionSorted exempts the canonical fix's first half: a loop whose
// whole body is `keys = append(keys, k)` where keys is sorted elsewhere in
// the file before use.
func keyCollectionSorted(rs *ast.RangeStmt, sorted map[string]bool) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" || len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok || dst.Name != lhs.Name {
		return false
	}
	el, ok := call.Args[1].(*ast.Ident)
	if !ok || el.Name != key.Name {
		return false
	}
	return sorted[lhs.Name]
}

// orderInsensitiveRange applies the two exemption proofs.
func orderInsensitiveRange(pkg *Package, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return true
	}
	return pureProbeLoop(pkg, rs) || commutativeLoop(pkg, rs)
}

// pureProbeLoop matches loops whose every statement is
// `if <pure cond> { return <constants> }`.
func pureProbeLoop(pkg *Package, rs *ast.RangeStmt) bool {
	for _, st := range rs.Body.List {
		ifs, ok := st.(*ast.IfStmt)
		if !ok || ifs.Else != nil || ifs.Init != nil || !pureExpr(pkg, ifs.Cond) || len(ifs.Body.List) == 0 {
			return false
		}
		for _, bs := range ifs.Body.List {
			ret, isRet := bs.(*ast.ReturnStmt)
			if !isRet {
				return false
			}
			for _, r := range ret.Results {
				if !constOrNil(pkg.Info, r) {
					return false
				}
			}
		}
	}
	return true
}

// commutativeLoop matches loops whose per-element effects commute exactly.
func commutativeLoop(pkg *Package, rs *ast.RangeStmt) bool {
	key, _ := rs.Key.(*ast.Ident)
	var stmtOK func(st ast.Stmt) bool
	stmtOK = func(st ast.Stmt) bool {
		switch s := st.(type) {
		case *ast.IncDecStmt:
			return basic(pkg.Info.TypeOf(s.X)).Info()&types.IsInteger != 0
		case *ast.AssignStmt:
			return commutativeAssign(pkg, key, s)
		case *ast.ExprStmt:
			call, isCall := s.X.(*ast.CallExpr)
			if !isCall {
				return false
			}
			fn, isIdent := call.Fun.(*ast.Ident)
			return isIdent && fn.Name == "delete"
		case *ast.IfStmt:
			if s.Else != nil || s.Init != nil || !pureExpr(pkg, s.Cond) || len(s.Body.List) == 0 {
				return false
			}
			for _, b := range s.Body.List {
				if !stmtOK(b) {
					return false
				}
			}
			return true
		case *ast.BranchStmt:
			return s.Tok == token.CONTINUE && s.Label == nil
		}
		return false
	}
	for _, st := range rs.Body.List {
		if !stmtOK(st) {
			return false
		}
	}
	return true
}

// commutativeAssign decides whether one assignment's effect commutes across
// iterations.
func commutativeAssign(pkg *Package, key *ast.Ident, s *ast.AssignStmt) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 || !pureExpr(pkg, s.Rhs[0]) {
		return false
	}
	lhs := s.Lhs[0]
	if isBlank(lhs) {
		return true
	}
	keyed := func(e ast.Expr) bool {
		ix, ok := e.(*ast.IndexExpr)
		if !ok || key == nil || key.Name == "_" {
			return false
		}
		id, ok := ix.Index.(*ast.Ident)
		return ok && id.Name == key.Name
	}
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		// only a cell addressed by the loop key is written exactly once
		return keyed(lhs)
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		// exact (integer) accumulation commutes; float accumulation does not
		if basic(pkg.Info.TypeOf(lhs)).Info()&types.IsInteger != 0 {
			return true
		}
		// a compound update of the key's own cell still runs once per key
		return keyed(lhs)
	}
	return false
}
