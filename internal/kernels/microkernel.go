package kernels

import (
	"fmt"
	"sync/atomic"
)

// Runtime ISA dispatch for the GEMM micro-kernel and the elementwise SIMD
// primitives.
//
// Dispatch is bitwise invisible by construction: every micro-kernel variant
// accumulates each output element's k-partials in exactly the reference
// order (products in ascending kk within a kc block, block partials folded
// onto the total in ascending block order, all inside one tile call), and
// every elementwise variant performs the same
// per-lane operation sequence as the scalar reference. Only the *tile shape*
// and the *register width* differ between variants — both are free
// parameters under the determinism contract of §3.3, proven free by the
// differential tests and fuzzers that pin the AVX2 and generic paths to
// identical bits.
//
// The active variant is chosen once at package init from CPUID (cpu_amd64.go)
// and can be overridden:
//
//   - EASYSCALE_FORCE_GENERIC=1 forces the pure-Go reference micro-kernel.
//   - SetISA switches at runtime (tests; safe at any point because both
//     variants are bitwise identical).
//
// There are two variants, each with the two tiles of mkDesc: the AVX2 8×8
// assembly tiles where the CPU and OS support them, and the pure-Go 4×4
// tiles everywhere else — spec, fallback and kill switch in one.
//
// The environment variable is read here at package init rather than in
// core.ConfigFromEnv: the kernels package's own test binary (and the
// forced-ISA `make check` lane that runs it) must honour it without
// importing core, which would be an import cycle. core/env.go documents it
// alongside the other EASYSCALE_* overrides.

// ISA names accepted by SetISA and returned by ActiveISA.
const (
	ISAAVX2    = "avx2"
	ISAGeneric = "generic"
)

// convTileFunc computes one mr×nr tile of a GEMM whose B operand is gathered
// instead of packed — a convolution's im2col matrix from the zero-bordered
// image, or a dense matrix (gemmDense) — in one call: for kk in [0,k),
// acc[r][c] += ap[kk·mr+r] · img[rows[c]+koff[kk]], where koff holds uint32
// element offsets stored as float32 bits. It walks all k steps kc at a time,
// sums each block's products in ascending kk from +0, and folds the block
// partials onto a running total in ascending block order — the first partial
// is the total, every later one is added total first. The total is then
// stored (add=false) into dst rows ldc apart starting at offset o, or added
// with the dst value first (add=true). ap is the tile's A strip, contiguous
// over all of k.
type convTileFunc func(dst []float32, o, ldc int, ap, img []float32, rows [maxNR]int, koff []float32, k, kc int, add bool)

// dxTileFunc computes one mr×nr tile of a convolution's input gradient — mr
// channels × nr positions of one dX row — as a gather over n tap records
// {aOff, bOff, mask[nr]} laid end to end in list (offsets as float32 bits,
// mask lanes all-ones or +0; see dxPlan). For each record in order it sums
// the tap's partial acc[r][c] = Σ ap[aOff+kk·mr+r] · dout[bOff+kk·ldb+c]
// over kk in [0,k), blocked and folded like a convTileFunc tile, ANDs
// lane c with mask[c], and adds it, total first, onto a running total that
// starts at +0. The total is then stored into dst rows ldc apart from o.
type dxTileFunc func(dst []float32, o, ldc int, ap, dout, list []float32, n, ldb, k, kc int)

// mkDesc describes one micro-kernel variant: its register-tile shape (which
// fixes the packed-A layout) and its two tiles: one gathering B through
// offset tables, for every GEMM but dX, and one gathering a dX tile over its
// taps. The packed-A buffer records the descriptor it was packed for, so a
// racing SetISA can never mismatch panel layout and kernel within one GEMM
// call.
type mkDesc struct {
	name   string
	mr, nr int
	conv   convTileFunc
	dx     dxTileFunc
	// elemSIMD enables the AVX2 elementwise primitives alongside this
	// micro-kernel (elem_amd64.go); false means the scalar references run.
	elemSIMD bool
}

// maxMR/maxNR bound the register tile across both variants: they size the
// edge-tile scratch of gemmConv and convDX and the column-offset array a conv
// tile receives.
const (
	maxMR = 8
	maxNR = 8
)

// mkGenericDesc is the portable pure-Go variant — the executable spec the
// AVX2 variant is fuzzed against, and the only variant off amd64 or on an
// amd64 CPU without AVX2.
var mkGenericDesc = &mkDesc{name: ISAGeneric, mr: 4, nr: 4, conv: convTile4x4Go, dx: dxTile4x4Go}

// curMK is the active variant. Atomic so tests may switch ISAs while the
// race detector watches; a GEMM call snapshots it once (newPackedA) and
// threads the snapshot through, so a mid-call switch is harmless.
var curMK atomic.Pointer[mkDesc]

func activeMK() *mkDesc {
	if mk := curMK.Load(); mk != nil {
		return mk
	}
	return mkGenericDesc
}

// ActiveISA returns the name of the micro-kernel variant currently
// dispatched: "avx2" or "generic".
func ActiveISA() string { return activeMK().name }

// AvailableISAs lists the variants runnable on this machine, best first.
func AvailableISAs() []string {
	out := make([]string, len(mkVariants))
	for i, mk := range mkVariants {
		out[i] = mk.name
	}
	return out
}

// CPUFeatures lists detected ISA capabilities (e.g. "sse2", "avx2") for
// observability counters and -version provenance. Detection is independent
// of any forced ISA: a run forced to generic on AVX2 hardware still reports
// avx2 as a capability.
func CPUFeatures() []string { return cpuFeatures() }

// SetISA selects a micro-kernel variant by name. Both variants are bitwise
// identical, so switching is safe at any time; calls in flight finish on the
// variant they started with. Unknown or unavailable names return an error
// and leave the selection unchanged.
func SetISA(name string) error {
	for _, mk := range mkVariants {
		if mk.name == name {
			curMK.Store(mk)
			return nil
		}
	}
	return fmt.Errorf("kernels: ISA %q not available on this machine (have %v)", name, AvailableISAs())
}
