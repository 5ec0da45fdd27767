package analysis

import (
	"go/ast"
	"go/types"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// reachAllow is every exported identifier of internal/* that no non-test
// code reaches and that stays anyway: a reference implementation a
// surviving test compares a fast path against, or a seam through which a
// test substitutes a clock, a size, a variant or a fault, or reads a count.
// Anything else a sweep leaves test-only is deleted with its tests, not
// listed here.
var reachAllow = []struct{ name, reason string }{
	{"kernels.Im2Col", "oracle: TestConvMatchesSpecBitwise checks the gathering conv tiles against the unfolded matrix"},
	{"comm.SequentialReduce", "oracle: the rank-ordered sum every all-reduce schedule is compared with"},
	{"comm.RingChunks", "oracle: the chunk plan the ring-order tests enumerate"},
	{"obs.WithClock", "seam: tests substitute a fixed clock for deterministic exports"},
	{"obs.WithRingCap", "seam: tests shrink the span ring to exercise overwrite and Dropped"},
	{"kernels.SetISA", "seam: the differential suites pin one kernel variant at a time"},
	{"pool.Disable", "seam: pooling-invisibility tests switch the arena off and restore it"},
	{"pool.Stats", "seam: the leak check reads the arena's get/put counters"},
	{"faults.Plan.FiredAt", "seam: soak campaigns read which injected faults fired, per site"},
	{"device.Device.UsedMB", "seam: memory-accounting tests read the simulated allocator"},
	{"controlplane.Plane.Release", "seam: the op-sequence test releases a lease by hand, the one op no driver issues"},
	{"obs.FixedClock", "seam: the deterministic clock WithClock installs for golden exports"},
	{"analysis.LoadDir", "seam: analyzer tests load one fixture directory from testdata, outside the module walk"},
	{"data.Loader.Prefetch", "seam: fills the queuing buffer whose roll-back TestLoaderStateRoundTripMidEpoch checkpoints"},
	{"tensor.FromData", "seam: tests wrap literal values in a tensor of a given shape (its one non-test caller, checkpoint.Reader.Tensor, was itself test-only and is gone)"},
}

// reachAllowCap is the ratchet: the allowlist may shrink, never grow.
const reachAllowCap = 15

// TestExportsReachedFromNonTestCode is the ratchet behind the dead-export
// sweep: every exported func, method and type declared in a non-test file
// under internal/ must be reached from non-test code somewhere in the
// repository — the frozen cmd/bench module included — or carry a reachAllow
// entry. Reached means a use of the declared object outside its own
// declaration (a method's receiver clause does not use its type), or, for a
// method, satisfying a method of an interface declared anywhere in the
// import closure: fmt.Stringer reaches String, sort.Interface reaches Len.
func TestExportsReachedFromNonTestCode(t *testing.T) {
	mod := repoModule(t)
	pkgs := mod.Packages()

	decls := map[types.Object]ast.Node{} // export → its declaration
	recvIdents := map[*ast.Ident]bool{}
	for _, pkg := range pkgs {
		internal := strings.HasPrefix(pkg.Path, mod.Path+"/internal/")
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recvIdents[id] = true
							}
							return true
						})
					}
					if internal && d.Name.IsExported() {
						decls[pkg.Info.Defs[d.Name]] = d
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok && internal && ts.Name.IsExported() {
							decls[pkg.Info.Defs[ts.Name]] = ts
						}
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	called := map[types.Object]bool{} // every object a use refers to
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			called[obj] = true
			if d := decls[obj]; d != nil && !recvIdents[id] && (id.Pos() < d.Pos() || id.Pos() >= d.End()) {
				reached[obj] = true
			}
		}
	}

	// a method is reached by any interface in the import closure it
	// satisfies; a method of the module's own interfaces counts only if some
	// code calls it through the interface
	ifaces := interfacesByMethod(t, mod, called)
	for obj := range decls {
		fn, ok := obj.(*types.Func)
		if !ok || reached[obj] {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		named := namedOf(recv.Type())
		if named == nil || named.TypeParams().Len() > 0 {
			continue
		}
		for _, it := range ifaces[fn.Name()] {
			if implements(named, it) {
				reached[obj] = true
				break
			}
		}
	}

	allowed := map[string]bool{}
	for _, a := range reachAllow {
		if a.reason == "" {
			t.Errorf("allowlist entry %s carries no reason", a.name)
		}
		allowed[a.name] = true
	}
	if len(reachAllow) > reachAllowCap {
		t.Errorf("allowlist has %d entries; the ratchet permits %d", len(reachAllow), reachAllowCap)
	}

	used := map[string]bool{}
	var dead []string
	for obj := range decls {
		if reached[obj] {
			continue
		}
		q := qualName(obj)
		if allowed[q] {
			used[q] = true
			continue
		}
		dead = append(dead, mod.Fset.Position(obj.Pos()).Filename[len(mod.Root)+1:]+": "+q)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported but no non-test code reaches it: delete it with its tests, or allowlist it as an oracle or seam", d)
	}
	for _, a := range reachAllow {
		if !used[a.name] {
			t.Errorf("stale allowlist entry %s: not declared, or reached from non-test code", a.name)
		}
	}
}

// interfacesByMethod indexes, by method name, every non-generic interface
// declared at package level in the module's import closure, the predeclared
// error, and every interface type the module's own code spells out. A
// method declared in the module is indexed only if called holds it.
func interfacesByMethod(t *testing.T, mod *Module, called map[types.Object]bool) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > n.TypeArgs().Len() {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if m.Pkg() == nil || mod.pkgs[m.Pkg().Path()] == nil || called[m] {
				out[m.Name()] = append(out[m.Name()], it)
			}
		}
	}
	addScope := func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	add(types.Universe.Lookup("error").Type())

	// the closure: types.Package.Imports is incomplete for a package read
	// from export data, so ask go list
	cmd := exec.Command("go", "list", "-deps", "./...")
	cmd.Dir = mod.Root
	deps, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, p := range strings.Fields(string(deps)) {
		dep, err := mod.imp.Import(p)
		if err != nil {
			t.Fatal(err)
		}
		addScope(dep)
	}
	for _, pkg := range mod.Packages() {
		addScope(pkg.TypesPkg)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}

// qualName renders an export as pkg.Name or, for a method, pkg.Type.Name.
func qualName(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if n := namedOf(recv.Type()); n != nil {
				name = n.Obj().Name() + "." + name
			}
		}
	}
	return obj.Pkg().Name() + "." + name
}
