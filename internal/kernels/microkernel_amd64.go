//go:build amd64

package kernels

import "os"

// The AVX2 8×8 variant is registered only when CPUID (and the OS, via XCR0)
// say the YMM state is usable; otherwise the pure-Go tile is all there is.
// The assembly kernel uses packed multiplies and adds only — each lane rounds
// exactly like the scalar ops Go emits (same IEEE-754 binary32 arithmetic,
// same MXCSR, no FMA, no horizontal reductions), so the two variants are
// bitwise-identical; the differential fuzzers assert it.
var mkAVX2Desc = &mkDesc{name: ISAAVX2, mr: 8, nr: 8, conv: convTile8x8AVX2, dx: dxTile8x8AVX2, elemSIMD: true}

// mkVariants lists the runnable variants, best first.
var mkVariants = buildVariants()

func buildVariants() []*mkDesc {
	if cpuHasAVX2 {
		return []*mkDesc{mkAVX2Desc, mkGenericDesc}
	}
	return []*mkDesc{mkGenericDesc}
}

// envFlag treats any value other than empty and "0" as set.
func envFlag(key string) bool {
	v := os.Getenv(key)
	return v != "" && v != "0"
}

func init() {
	pick := mkVariants[0]
	if envFlag("EASYSCALE_FORCE_GENERIC") {
		pick = mkGenericDesc
	}
	curMK.Store(pick)
}
