package analysis

import (
	"go/token"
	"go/types"
)

// wallTimeAllowed are the packages whose wall-clock reads are sanctioned
// wholesale: I/O deadlines in the distributed runtime and measurement-only
// code. The device profiler, the kernel entropy source, and the comm ready
// jitter are NOT allow-listed — they carry per-site //detlint:ignore
// directives so the D2 story stays a searchable, audited annotation.
// internal/serve reads the wall clock for request deadlines and flush
// timers only; the numerics are batch-composition-invariant by construction
// (see the serve package doc), so timing can never change an output bit.
var wallTimeAllowed = []string{"internal/dist", "internal/obs", "internal/metrics", "internal/serve"}

// WallTime returns the walltime analyzer: any reference to time.Now,
// time.Since, or time.Until outside the allow-listed packages is a
// diagnostic — a call, or the function taken as a value — because a
// wall-clock read feeding a numeric or scheduling decision makes two
// identical runs diverge (profiling-based kernel selection is the paper's
// canonical example).
func WallTime(allowed ...string) *Analyzer {
	if len(allowed) == 0 {
		allowed = wallTimeAllowed
	}
	a := &Analyzer{
		Name: "walltime",
		Doc:  "wall-clock read outside the allow-listed deadline/measurement packages",
	}
	a.Run = func(pass *Pass) {
		if pkgMatchesAny(pass.Pkg, allowed) {
			return
		}
		for _, f := range pass.Pkg.Files {
			funcUses(pass.Pkg.Info, f, func(pos token.Pos, fn *types.Func) {
				if isWallClock(fn) {
					pass.Report(pos, "time.%s can steer numeric or scheduling decisions; identical runs will diverge (allow-listed: %v)", fn.Name(), allowed)
				}
			})
		}
	}
	return a
}

// isWallClock reports whether fn is one of package time's wall-clock reads.
func isWallClock(fn *types.Func) bool {
	switch fn.Name() {
	case "Now", "Since", "Until":
		return isPkgFunc(fn, "time")
	}
	return false
}
