package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow is every exported identifier of internal/* that no non-test
// file mentions and that stays anyway: a reference implementation a
// surviving test compares a fast path against, or a seam through which a
// test substitutes a clock, a size, a variant or a fault. Anything else a
// sweep leaves test-only is deleted with its tests, not listed here.
var reachAllow = []struct{ name, reason string }{
	{"kernels.Im2Col", "oracle: TestIm2ColCol2ImAdjoint checks the packed conv path against the unfolded matrix"},
	{"comm.SequentialReduce", "oracle: the rank-ordered sum every all-reduce schedule is compared with"},
	{"comm.RingChunks", "oracle: the chunk plan the ring-order tests enumerate"},
	{"obs.WithClock", "seam: tests substitute a fixed clock for deterministic exports"},
	{"obs.WithRingCap", "seam: tests shrink the span ring to exercise overwrite and Dropped"},
	{"kernels.SetISA", "seam: the differential suites pin one kernel variant at a time"},
	{"pool.Disable", "seam: pooling-invisibility tests switch the arena off"},
	{"pool.Enable", "seam: restores the arena after Disable"},
	{"pool.Enabled", "seam: lets a test restore the arena state it found"},
	{"faults.Plan.FiredAt", "seam: soak campaigns read which injected faults fired, per site"},
	{"device.Device.UsedMB", "seam: memory-accounting tests read the simulated allocator"},
	{"controlplane.Plane.Held", "seam: conservation-law tests read a job's leased GPUs"},
	{"obs.FixedClock", "seam: the deterministic clock WithClock installs for golden exports"},
	{"analysis.LoadDir", "seam: analyzer tests load one fixture directory from testdata, outside the module walk"},
	{"data.Loader.Prefetch", "seam: fills the queuing buffer whose roll-back TestLoaderStateRoundTripMidEpoch checkpoints"},
	{"sched.Companion.PlanFor", "seam: plan tests read the companion database for one exact resource vector"},
	{"tensor.FromData", "seam: tests wrap literal values in a tensor of a given shape (its one non-test caller, checkpoint.Reader.Tensor, was itself test-only and is gone)"},
}

// stdlibIfaceMethods are method names that satisfy standard-library
// interfaces (fmt.Stringer, error, sort.Interface, types.Importer) and are
// therefore called without being named. Methods of interfaces declared in
// this module need no entry: the interface's own method list is a non-test
// mention.
var stdlibIfaceMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
	"Import": true,
}

// TestExportsReachedFromNonTestCode is the ratchet behind the dead-export
// sweep: every exported func, method and type declared in a non-test file
// under internal/ must be mentioned by at least one other non-test
// identifier somewhere in the repository — the frozen cmd/bench module
// included — or carry a reachAllow entry. The scan is by name, not by type,
// so it can miss a dead method that shares its name with a live one; it never
// reports a live one.
func TestExportsReachedFromNonTestCode(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}

	type decl struct{ file, qual string }
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	mentions := map[string]int{}

	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if strings.HasPrefix(rel, "internal/") {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declIdents[d.Name] = true
					if d.Recv != nil {
						// a type is not reached by having methods
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								declIdents[id] = true
							}
							return true
						})
					}
					if !d.Name.IsExported() || (d.Recv != nil && stdlibIfaceMethods[d.Name.Name]) {
						continue
					}
					decls = append(decls, decl{rel, f.Name.Name + "." + recvPrefix(d) + d.Name.Name})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							declIdents[ts.Name] = true
							if ts.Name.IsExported() {
								decls = append(decls, decl{rel, f.Name.Name + "." + ts.Name.Name})
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				mentions[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	allowed := map[string]bool{}
	for _, a := range reachAllow {
		if a.reason == "" {
			t.Errorf("allowlist entry %s carries no reason", a.name)
		}
		allowed[a.name] = true
	}
	if len(reachAllow) > 20 {
		t.Errorf("allowlist has %d entries; the ratchet permits 20", len(reachAllow))
	}

	used := map[string]bool{}
	var dead []string
	for _, d := range decls {
		if mentions[d.qual[strings.LastIndexByte(d.qual, '.')+1:]] > 0 {
			continue
		}
		if allowed[d.qual] {
			used[d.qual] = true
			continue
		}
		dead = append(dead, d.file+": "+d.qual)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported but no non-test file mentions it: delete it with its tests, or allowlist it as an oracle or seam", d)
	}
	for _, a := range reachAllow {
		if !used[a.name] {
			t.Errorf("stale allowlist entry %s: not declared, or reached from non-test code", a.name)
		}
	}
}

// recvPrefix renders a method's receiver type as "T." ("" for a function).
func recvPrefix(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	e := d.Recv.List[0].Type
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}
