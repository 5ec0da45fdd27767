package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// randPkgs are the import paths rawrand polices.
var randPkgs = map[string]bool{"math/rand": true, "math/rand/v2": true}

// RawRand returns the rawrand analyzer: any use of math/rand (v1 or v2)
// outside the allow-listed packages (default internal/rng) is a diagnostic —
// global-state draws and wall-clock seeding each get a precise message, and
// the import itself is flagged so even a locally seeded rand.New bypassing
// internal/rng's replayable streams is caught.
func RawRand(allowed ...string) *Analyzer {
	if len(allowed) == 0 {
		allowed = []string{"internal/rng"}
	}
	a := &Analyzer{
		Name: "rawrand",
		Doc:  "math/rand global state or wall-clock-seeded randomness outside internal/rng",
	}
	a.Run = func(pass *Pass) {
		if pkgMatchesAny(pass.Pkg, allowed) {
			return
		}
		info := pass.Pkg.Info
		for _, f := range pass.Pkg.Files {
			for _, im := range f.Imports {
				p := importPathOf(im)
				if randPkgs[p] {
					pass.Report(im.Pos(), "import of %s outside internal/rng; draw from the seeded, replayable streams in internal/rng instead", p)
				}
			}
			funcUses(info, f, func(pos token.Pos, fn *types.Func) {
				if drawsGlobal(fn) {
					pass.Report(pos, "%s.%s uses process-global RNG state shared by every goroutine; use a seeded stream from internal/rng", shortPkg(fn.Pkg().Path()), fn.Name())
				}
			})
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(info, call)
				if fn != nil && fn.Pkg() != nil && randPkgs[fn.Pkg().Path()] && wallClockSeeded(info, call) {
					pass.Report(call.Pos(), "%s.%s seeded from the wall clock: every process run draws a different sequence", shortPkg(fn.Pkg().Path()), fn.Name())
				}
				return true
			})
		}
	}
	return a
}

// drawsGlobal reports whether fn draws from math/rand's process-global
// source: a package-level function of math/rand{,/v2} whose results name no
// type of that package. Those that do (rand.New, rand.NewSource, NewPCG)
// build a generator; every other one — Intn, Shuffle, Seed, Read — reads
// state every goroutine has drawn from since process start, the exact
// opposite of the per-stream seeded discipline in internal/rng.
func drawsGlobal(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if fn.Pkg() == nil || !randPkgs[fn.Pkg().Path()] || sig.Recv() != nil {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if n := namedOf(res.At(i).Type()); n != nil && n.Obj().Pkg() == fn.Pkg() {
			return false
		}
	}
	return true
}

// wallClockSeeded reports whether any argument of call reads the wall clock
// (the rand.NewSource(time.Now().UnixNano()) idiom).
func wallClockSeeded(info *types.Info, call *ast.CallExpr) bool {
	seeded := false
	for _, arg := range call.Args {
		funcUses(info, arg, func(_ token.Pos, fn *types.Func) {
			seeded = seeded || isWallClock(fn)
		})
	}
	return seeded
}

func importPathOf(im *ast.ImportSpec) string {
	p := im.Path.Value
	return p[1 : len(p)-1]
}

func shortPkg(p string) string {
	if p == "math/rand/v2" {
		return "rand/v2"
	}
	return "rand"
}
