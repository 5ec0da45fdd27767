package kernels

import (
	"math"
	"testing"
)

// The differential suite for the cache-blocked GEMM: the tiled kernels
// (gemm.go) must be bitwise identical to the unexported reference loops for
// every shape, kc, and input — including non-finite values. The exported
// entry points dispatch by problem size, so the tests call the tiled
// implementations directly to exercise them even at tiny shapes.

type gemmImpl struct {
	name  string
	ref   func(dst, a, b []float32, m, k, n, kc int)
	tiled func(dst, a, b []float32, m, k, n, kc int)
	// operand lengths as functions of (m, k, n)
	aLen, bLen func(m, k, n int) int
}

var gemmImpls = []gemmImpl{
	{"MatMul", matMulRef, matMulTiled,
		func(m, k, n int) int { return m * k }, func(m, k, n int) int { return k * n }},
	{"MatMulATB", matMulATBRef, matMulATBTiled,
		func(m, k, n int) int { return k * m }, func(m, k, n int) int { return k * n }},
	{"MatMulABT", matMulABTRef, matMulABTTiled,
		func(m, k, n int) int { return m * k }, func(m, k, n int) int { return n * k }},
}

// splitmix64 gives the tests a tiny deterministic generator.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func fillRand(xs []float32, seed uint64) {
	s := seed
	for i := range xs {
		// [-2, 2) with plenty of mantissa variety
		xs[i] = float32(int64(splitmix64(&s)%4096)-2048) / 1024
	}
}

// specials are the values the zero-skip audit cares about: removing the
// `if aik == 0 { continue }` fast path is invisible for finite inputs and
// makes NaN/±Inf propagation IEEE-exact; −0 operands and denormals must not
// perturb anything either. The tiled kernels must match the references on
// all of them.
var specials = []float32{
	float32(math.NaN()),
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	float32(math.Copysign(0, -1)), // -0
	0,
	math.SmallestNonzeroFloat32, // denormal
	-math.SmallestNonzeroFloat32,
	math.MaxFloat32,
}

func sprinkle(xs []float32, seed uint64) { sprinkleN(xs, seed, 1+len(xs)/4) }

// sprinkleN overwrites n randomly chosen elements of xs with specials.
func sprinkleN(xs []float32, seed uint64, n int) {
	if len(xs) == 0 {
		return
	}
	s := seed
	for i := 0; i < n; i++ {
		xs[splitmix64(&s)%uint64(len(xs))] = specials[splitmix64(&s)%uint64(len(specials))]
	}
}

// sameBits is the bitwise contract's equality: exact bits for every non-NaN
// value (±0 and ±Inf signs included), NaN-ness for NaNs. NaN payload and
// sign are the one deliberate slack: IEEE 754 leaves payload propagation
// unspecified, and the compiler may commute a multiply or add (legal for
// every non-NaN result), which changes only which NaN payload survives.
func sameBits(x, y float32) bool {
	xb, yb := math.Float32bits(x), math.Float32bits(y)
	if xb == yb {
		return true
	}
	return isNaNBits(xb) && isNaNBits(yb)
}

func isNaNBits(b uint32) bool {
	return b&0x7f800000 == 0x7f800000 && b&0x007fffff != 0
}

// diffBits compares two float32 slices under sameBits and reports the first
// mismatch.
func diffBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d: got bits %#08x (%v), want bits %#08x (%v)",
				label, i, math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

func runDifferential(t *testing.T, impl gemmImpl, m, k, n, kc int, a, b []float32, label string) {
	t.Helper()
	want := make([]float32, m*n)
	got := make([]float32, m*n)
	impl.ref(want, a, b, m, k, n, kc)
	impl.tiled(got, a, b, m, k, n, kc)
	diffBits(t, label, got, want)
}

// TestGemmTiledVsReference sweeps shapes around every tiling boundary —
// register-tile edges (mod gemmMR/gemmNR), cache-block edges (gemmNC,
// gemmMCStrips·gemmMR), degenerate 0/1 dims — across kc values including the
// normalization cases kc<=0 and kc>k.
func TestGemmTiledVsReference(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {4, 4, 4}, {5, 3, 7}, {8, 16, 4}, {3, 1, 9},
		{4, 7, 3}, {16, 33, 12}, {7, 64, 5}, {129, 8, 3}, {2, 9, 260},
		{1, 0, 5}, {0, 4, 4}, {4, 4, 0}, {0, 0, 0},
		{131, 17, 19}, {12, 144, 64}, {72, 8, 64},
	}
	kcs := []int{-1, 0, 1, 2, 3, 7, 16, 64, 1000}
	forEachISA(t, func(t *testing.T) {
		for _, impl := range gemmImpls {
			for _, sh := range shapes {
				m, k, n := sh[0], sh[1], sh[2]
				a := make([]float32, impl.aLen(m, k, n))
				b := make([]float32, impl.bLen(m, k, n))
				fillRand(a, uint64(m*1000003+k*101+n))
				fillRand(b, uint64(n*999983+k*211+m))
				for _, kc := range kcs {
					runDifferential(t, impl, m, k, n, kc, a, b,
						impl.name+shapeLabel(m, k, n, kc))
				}
			}
		}
	})
}

// TestGemmTiledVsReferenceNonFinite locks in the zero-skip decision: the
// references form a product for every k index (no skip of zero operands), so
// NaN, ±Inf, −0, and denormals must flow through the tiled kernels with
// exactly the same bits — across kc boundaries, edge tiles, and the
// store-vs-add first-block path.
func TestGemmTiledVsReferenceNonFinite(t *testing.T) {
	shapes := [][3]int{
		{4, 4, 4}, {5, 9, 6}, {8, 27, 16}, {13, 64, 9}, {3, 130, 258},
	}
	kcs := []int{0, 1, 3, 16, 64}
	forEachISA(t, func(t *testing.T) {
		for _, impl := range gemmImpls {
			for si, sh := range shapes {
				m, k, n := sh[0], sh[1], sh[2]
				a := make([]float32, impl.aLen(m, k, n))
				b := make([]float32, impl.bLen(m, k, n))
				fillRand(a, uint64(si*7+1))
				fillRand(b, uint64(si*13+2))
				sprinkle(a, uint64(si*31+3))
				sprinkle(b, uint64(si*37+4))
				for _, kc := range kcs {
					runDifferential(t, impl, m, k, n, kc, a, b,
						impl.name+"/nonfinite"+shapeLabel(m, k, n, kc))
				}
			}
		}
	})
}

// TestExportedGemmDispatchBitwise drives the exported entry points across the
// tiledMinWork dispatch threshold and asserts they match the references —
// the size-based dispatch must be invisible.
func TestExportedGemmDispatchBitwise(t *testing.T) {
	exported := []func(dst, a, b []float32, m, k, n, kc int){MatMul, MatMulATB, MatMulABT}
	shapes := [][3]int{{4, 4, 4}, {8, 27, 64}, {16, 100, 40}} // below and above tiledMinWork
	forEachISA(t, func(t *testing.T) {
		for vi, impl := range gemmImpls {
			for _, sh := range shapes {
				m, k, n := sh[0], sh[1], sh[2]
				a := make([]float32, impl.aLen(m, k, n))
				b := make([]float32, impl.bLen(m, k, n))
				fillRand(a, uint64(vi+m))
				fillRand(b, uint64(vi+n))
				sprinkle(a, uint64(vi*5+1))
				for _, kc := range []int{0, 4, 32} {
					want := make([]float32, m*n)
					got := make([]float32, m*n)
					impl.ref(want, a, b, m, k, n, kc)
					exported[vi](got, a, b, m, k, n, kc)
					diffBits(t, impl.name+"/exported"+shapeLabel(m, k, n, kc), got, want)
				}
			}
		}
	})
}

func shapeLabel(m, k, n, kc int) string {
	digits := func(x int) string {
		if x < 0 {
			return "-" + digitsOf(-x)
		}
		return digitsOf(x)
	}
	return "/m" + digits(m) + "k" + digits(k) + "n" + digits(n) + "kc" + digits(kc)
}

func digitsOf(x int) string {
	if x == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for x > 0 {
		i--
		b[i] = byte('0' + x%10)
		x /= 10
	}
	return string(b[i:])
}

// fuzzGemm derives a shape, kc, and operand contents (random values plus
// sprinkled specials) from the fuzz inputs and asserts bitwise equality of
// the tiled and reference kernels — under every available micro-kernel
// variant, so one fuzz execution differentially covers AVX2 and the generic
// spec at once.
func fuzzGemm(f *testing.F, impl gemmImpl) {
	f.Add(uint8(4), uint8(4), uint8(4), int16(0), uint64(1), false)
	f.Add(uint8(1), uint8(0), uint8(3), int16(1), uint64(2), true)
	f.Add(uint8(0), uint8(5), uint8(1), int16(-3), uint64(3), false)
	f.Add(uint8(9), uint8(130), uint8(70), int16(64), uint64(4), true)
	f.Add(uint8(130), uint8(17), uint8(5), int16(16), uint64(5), true)
	f.Fuzz(func(t *testing.T, m8, k8, n8 uint8, kc16 int16, seed uint64, withSpecials bool) {
		m, k, n, kc := int(m8), int(k8), int(n8), int(kc16)
		a := make([]float32, impl.aLen(m, k, n))
		b := make([]float32, impl.bLen(m, k, n))
		fillRand(a, seed)
		fillRand(b, seed^0xdeadbeef)
		if withSpecials {
			sprinkle(a, seed+1)
			sprinkle(b, seed+2)
		}
		want := make([]float32, m*n)
		got := make([]float32, m*n)
		impl.ref(want, a, b, m, k, n, kc)
		prev := ActiveISA()
		defer func() {
			if err := SetISA(prev); err != nil {
				t.Fatal(err)
			}
		}()
		for _, isa := range AvailableISAs() {
			if err := SetISA(isa); err != nil {
				t.Fatal(err)
			}
			impl.tiled(got, a, b, m, k, n, kc)
			for i := range got {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s[%s] m=%d k=%d n=%d kc=%d: element %d: got bits %#08x, want %#08x",
						impl.name, isa, m, k, n, kc, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	})
}

func FuzzGemmTiledVsReferenceMatMul(f *testing.F)    { fuzzGemm(f, gemmImpls[0]) }
func FuzzGemmTiledVsReferenceMatMulATB(f *testing.F) { fuzzGemm(f, gemmImpls[1]) }
func FuzzGemmTiledVsReferenceMatMulABT(f *testing.F) { fuzzGemm(f, gemmImpls[2]) }
