package kernels

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// The differential suite for the register-tiled GEMM: the tiled kernels
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
// register-tile edges (mod mr/nr of every variant), degenerate 0/1 dims, and
// many row strips or column tiles with edge tiles on both sides (gemmConv
// walks them all in one pass, with no cache blocking) — across kc values
// including the normalization cases kc<=0 and kc>k.
func TestGemmTiledVsReference(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {4, 4, 4}, {5, 3, 7}, {8, 16, 4}, {3, 1, 9},
		{4, 7, 3}, {16, 33, 12}, {7, 64, 5}, {129, 8, 3}, {2, 9, 260},
		{1, 0, 5}, {0, 4, 4}, {4, 4, 0}, {0, 0, 0},
		{131, 17, 19}, {12, 144, 64}, {72, 8, 64},
		{512, 32, 32}, {32, 512, 32}, {64, 192, 192}, {257, 33, 65},
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
// exactly the same bits — across kc boundaries, edge tiles, and the fold of
// the first block's partial as the total.
func TestGemmTiledVsReferenceNonFinite(t *testing.T) {
	shapes := [][3]int{
		{4, 4, 4}, {5, 9, 6}, {8, 27, 16}, {13, 64, 9}, {3, 130, 258},
		{512, 32, 32}, {32, 512, 32}, {64, 192, 192}, {257, 33, 65},
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

// TestGemmAllocFree: after warm-up, the tiled GEMMs draw every buffer —
// packed A, the offset tables and the edge tile — from the arena, so a call
// allocates nothing: at bert's smallest tiled shape, at the widest serving
// shape and at a tall one with many row strips.
func TestGemmAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful uninstrumented")
	}
	exported := []func(dst, a, b []float32, m, k, n, kc int){MatMul, MatMulATB, MatMulABT}
	for _, sh := range [][3]int{{32, 16, 16}, {32, 64, 192}, {512, 32, 32}} {
		m, k, n := sh[0], sh[1], sh[2]
		forEachISA(t, func(t *testing.T) {
			for vi, impl := range gemmImpls {
				a, b, dst := make([]float32, impl.aLen(m, k, n)), make([]float32, impl.bLen(m, k, n)), make([]float32, m*n)
				fillRand(a, 1)
				fillRand(b, 2)
				if allocs := testing.AllocsPerRun(10, func() { exported[vi](dst, a, b, m, k, n, 8) }); allocs != 0 {
					t.Fatalf("%s%s: %v allocs per call, want 0", impl.name, shapeLabel(m, k, n, 8), allocs)
				}
			}
		})
	}
}

// TestOffsetTablesPanicPastUint32: the offset tables store uint32 element
// offsets, so an operand past 2³² elements must panic in the table builder,
// before anything is drawn, instead of wrapping — checked from dimensions
// alone, for a convolution's image and a dense GEMM's B.
func TestOffsetTablesPanicPastUint32(t *testing.T) {
	checkOffsets(1 << 32) // the largest operand a uint32 offset indexes
	for name, call := range map[string]func(){
		"table": func() { checkOffsets(1<<32 + 1) },
		"conv": func() {
			new(ConvPlan).layout(ConvDims{Batch: 1, CIn: 1 << 16, H: 1 << 8, W: 1<<8 + 1, COut: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1})
		},
		"gemm": func() { gemmDense(nil, 1<<16+1, &packedA{m: 1, k: 1 << 16}, nil, 1, 1<<16+1) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "uint32 offset tables") {
					t.Errorf("%s: an operand past 2^32 elements did not panic in the table builder (got %q)", name, msg)
				}
			}()
			call()
		}()
	}
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

// tileFold is the tile contract in scalar form, on the mr×nr tile of
// B(kk,c) = b(kk, c) against A(r,kk) = ap[kk·mr+r]: per element, each kc
// block's products summed in ascending kk from +0, the first partial the
// total and every later one added total first; the total then stored into
// dst, or added to it with the dst value first.
func tileFold(dst []float32, o, ldc, mr, nr int, ap []float32, b func(kk, c int) float32, k, kc int, add bool) {
	for r := 0; r < mr; r++ {
		for c := 0; c < nr; c++ {
			var total float32
			for k0 := 0; k0 < k; k0 += kc {
				var part float32
				for kk := k0; kk < min(k0+kc, k); kk++ {
					part += ap[kk*mr+r] * b(kk, c)
				}
				if k0 == 0 {
					total = part
				} else {
					total += part
				}
			}
			if add {
				dst[o+r*ldc+c] += total
			} else {
				dst[o+r*ldc+c] = total
			}
		}
	}
}

// tileOperands are one conv tile call's operands: a packed A strip k deep,
// and an image with row and tap offset tables through which the tile gathers
// B. dst is a sentinel-filled frame around the tile at offset o, rows ldc
// apart.
type tileOperands struct {
	ap, img, koff []float32
	rows          [maxNR]int
	dst           []float32
	o, ldc, k     int
}

func newTileOperands(mr, nr, k int, seed uint64, fill func([]float32, uint64)) tileOperands {
	op := tileOperands{ap: make([]float32, mr*k), img: make([]float32, nr*k),
		koff: make([]float32, k), ldc: nr + 3, k: k}
	op.o = op.ldc + 1
	op.dst = make([]float32, (mr+2)*op.ldc)
	fill(op.ap, seed)
	fill(op.img, seed+1)
	fill(op.dst, seed+2)
	for c := 0; c < nr; c++ {
		op.rows[c] = c * k // image column c holds B(·,c) contiguously
	}
	for kk := range op.koff {
		op.koff[kk] = math.Float32frombits(uint32(kk))
	}
	return op
}

func (op *tileOperands) b(kk, c int) float32 { return op.img[c*op.k+kk] }

// runTile calls one variant's conv tile on a copy of dst.
func (op *tileOperands) runTile(mk *mkDesc, kc int, add bool) []float32 {
	dst := append([]float32(nil), op.dst...)
	mk.conv(dst, op.o, op.ldc, op.ap, op.img, op.rows, op.koff, op.k, kc, add)
	return dst
}

// mixedFill draws values over many binades, so a change of summation or fold
// order shows in the low bits, with a few specials sprinkled in.
func mixedFill(xs []float32, seed uint64) {
	copy(xs, sumOperands(len(xs), seed, false))
	sprinkleN(xs, seed, len(xs)/32)
}

// TestTileFoldsBlocksLikeSpec holds every registered variant's conv tile
// and dX tile to the scalar fold at k around one, one and several kc blocks
// (kc 1, 8, 64, and a single block kc = k), stored and, for the conv tile,
// added, with the cells around the tile left untouched. On the assembly
// tiles a NaN-payload case then tells the operand orders apart, which
// sameBits forgives elsewhere: two NaN products in block 0 (the accumulator
// first), another NaN in block 1 (the total first in the fold) and a NaN
// already in dst (the dst value first in the final add) must each leave the
// expected payload. The generic tiles are exempt: Go may commute a float
// add, which changes only the surviving payload.
func TestTileFoldsBlocksLikeSpec(t *testing.T) {
	for _, mk := range mkVariants {
		name := mk.name + "/conv"
		for _, kc := range []int{1, 8, 64} {
			for _, k := range []int{1, kc - 1, kc, kc + 1, 3 * kc, 3*kc + 5} {
				if k < 1 {
					continue
				}
				op := newTileOperands(mk.mr, mk.nr, k, uint64(k*131+kc), mixedFill)
				for _, bk := range []int{kc, k} {
					for _, add := range []bool{false, true} {
						want := append([]float32(nil), op.dst...)
						tileFold(want, op.o, op.ldc, mk.mr, mk.nr, op.ap, op.b, k, bk, add)
						diffBits(t, fmt.Sprintf("%s/k%d/kc%d/add=%v", name, k, bk, add), op.runTile(mk, bk, add), want)
					}
				}
			}
		}
		checkDXTileFolds(t, mk)

		if mk == mkGenericDesc {
			continue
		}
		const kc, k = 8, 16
		op := newTileOperands(mk.mr, mk.nr, k, 1, onesFill)
		for r := 0; r < mk.mr; r++ {
			op.ap[0*mk.mr+r], op.ap[1*mk.mr+r], op.ap[kc*mk.mr+r] = nanBits(1), nanBits(4), nanBits(2)
		}
		for _, add := range []bool{false, true} {
			want := nanBits(1)
			if add {
				want = nanBits(3)
				for i := range op.dst {
					op.dst[i] = nanBits(3)
				}
			}
			checkTileBits(t, fmt.Sprintf("%s/nan-payload/add=%v", name, add), op.runTile(mk, kc, add), op.o, op.ldc, mk.mr, mk.nr, want)
		}
	}
}

func nanBits(payload uint32) float32 { return math.Float32frombits(0x7fc00000 | payload) }

func onesFill(xs []float32, _ uint64) {
	for i := range xs {
		xs[i] = 1
	}
}

// checkTileBits requires every element of the mr×nr tile at o to carry
// exactly want's bits.
func checkTileBits(t *testing.T, label string, got []float32, o, ldc, mr, nr int, want float32) {
	t.Helper()
	for r := 0; r < mr; r++ {
		for c := 0; c < nr; c++ {
			if g := math.Float32bits(got[o+r*ldc+c]); g != math.Float32bits(want) {
				t.Fatalf("%s: element (%d,%d) bits %#08x, want %#08x", label, r, c, g, math.Float32bits(want))
			}
		}
	}
}

// dxOperands are one dX tile call's operands: taps Wᵀ strips k deep laid
// end to end in ap, a dOut matrix with rows ldb apart, and a tap list whose
// records point at strip t and at a dOut column that moves with t, so the
// taps read different operands; dst is the sentinel frame of tileOperands.
type dxOperands struct {
	ap, dout, list, dst []float32
	o, ldc, ldb         int
}

func newDXOperands(mr, nr, taps, k int, seed uint64, fill func([]float32, uint64), mask func(t, c int) bool) dxOperands {
	op := dxOperands{ap: make([]float32, taps*k*mr), ldb: nr + 3, ldc: nr + 3, list: make([]float32, taps*(2+nr))}
	op.dout = make([]float32, (k-1)*op.ldb+2+nr)
	op.o = op.ldc + 1
	op.dst = make([]float32, (mr+2)*op.ldc)
	fill(op.ap, seed)
	fill(op.dout, seed+1)
	fill(op.dst, seed+2)
	for t := 0; t < taps; t++ {
		r := op.list[t*(2+nr):]
		r[0], r[1] = math.Float32frombits(uint32(t*k*mr)), math.Float32frombits(uint32(t%3))
		for c := 0; c < nr; c++ {
			r[2+c] = 0
			if mask(t, c) {
				r[2+c] = math.Float32frombits(^uint32(0))
			}
		}
	}
	return op
}

func (op *dxOperands) run(mk *mkDesc, taps, k, kc int) []float32 {
	dst := append([]float32(nil), op.dst...)
	mk.dx(dst, op.o, op.ldc, op.ap, op.dout, op.list, taps, op.ldb, k, kc)
	return dst
}

// dxFold is the dX tile contract in scalar form: per element, a total that
// starts at +0 and, tap by tap, adds the tap's tileFold partial, total
// first, wherever the tap's lane is on.
func dxFold(dst []float32, o, ldc, mr, nr int, op *dxOperands, taps, k, kc int) {
	tot, part := make([]float32, mr*nr), make([]float32, mr*nr)
	for t := 0; t < taps; t++ {
		r := op.list[t*(2+nr):]
		a, b0 := op.ap[math.Float32bits(r[0]):], int(math.Float32bits(r[1]))
		tileFold(part, 0, nr, mr, nr, a, func(kk, c int) float32 { return op.dout[b0+kk*op.ldb+c] }, k, kc, false)
		for i := range tot {
			if math.Float32bits(r[2+i%nr]) != 0 {
				tot[i] += part[i]
			}
		}
	}
	storeTile(dst[o:], ldc, tot, nr, mr, nr, false)
}

// checkDXTileFolds holds mk's dX tile to dxFold at 1, 2, 9 and 25 taps, k
// (COut) around one, one and several kc blocks, and four mask patterns —
// all lanes on, all off, alternating and a single lane — and, on the
// assembly tile, requires tap 0's NaN payload to survive tap 1's: the
// running total comes first in each tap's add.
func checkDXTileFolds(t *testing.T, mk *mkDesc) {
	masks := []struct {
		name string
		on   func(t, c int) bool
	}{
		{"all-on", func(int, int) bool { return true }},
		{"all-off", func(int, int) bool { return false }},
		{"alternating", func(t, c int) bool { return (t+c)%2 == 0 }},
		{"single-lane", func(t, c int) bool { return c == t%mk.nr }},
	}
	for _, kc := range []int{1, 8, 64} {
		for _, k := range []int{1, kc - 1, kc, kc + 1, 3*kc + 5} {
			if k < 1 {
				continue
			}
			for _, taps := range []int{1, 2, 9, 25} {
				for _, mask := range masks {
					op := newDXOperands(mk.mr, mk.nr, taps, k, uint64(k*131+kc+taps), mixedFill, mask.on)
					want := append([]float32(nil), op.dst...)
					dxFold(want, op.o, op.ldc, mk.mr, mk.nr, &op, taps, k, kc)
					diffBits(t, fmt.Sprintf("%s/dx/taps%d/k%d/kc%d/%s", mk.name, taps, k, kc, mask.name), op.run(mk, taps, k, kc), want)
				}
			}
		}
	}

	if mk == mkGenericDesc {
		return
	}
	const kc, k = 8, 16
	op := newDXOperands(mk.mr, mk.nr, 2, k, 1, onesFill, func(int, int) bool { return true })
	for r := 0; r < mk.mr; r++ {
		op.ap[0*mk.mr+r], op.ap[1*mk.mr+r], op.ap[kc*mk.mr+r] = nanBits(1), nanBits(4), nanBits(5)
		op.ap[k*mk.mr+r] = nanBits(2) // tap 1
	}
	checkTileBits(t, mk.name+"/dx/nan-payload", op.run(mk, 2, k, kc), op.o, op.ldc, mk.mr, mk.nr, nanBits(1))
}

// gemmTraffic lists the tiled GEMM shapes (m, k, n) the benchmark workloads
// run, per variant: bert's EST pass at 4 ESTs × batch 4 and serving's
// models at batch 8 and at MaxBatch 32. Every other GEMM they run falls under
// tiledMinWork and takes the reference loops.
var gemmTraffic = [][][3]int{
	{{32, 16, 16}, {32, 16, 32}, {32, 32, 16}, {64, 16, 16}, {64, 16, 32}, {64, 32, 16},
		{8, 16, 64}, {8, 32, 64}, {8, 64, 32}, {8, 64, 192}},
	{{16, 32, 16}, {16, 32, 32}, {16, 64, 16}, {16, 64, 32}, {32, 32, 16}, {32, 64, 16},
		{16, 8, 64}, {32, 8, 64}, {64, 8, 32}, {64, 8, 192}},
	{{32, 16, 16}, {32, 16, 32}, {32, 32, 16}, {64, 16, 16}, {64, 16, 32}, {64, 32, 16},
		{8, 32, 64}, {8, 64, 16}, {8, 64, 32}, {8, 192, 64},
		{32, 32, 10}, {32, 32, 64}, {32, 64, 16}, {32, 64, 32}, {32, 192, 64}},
}

// BenchmarkGemmTraffic times each tiled shape of gemmTraffic at kc 8 and 64
// on the active ISA (EASYSCALE_FORCE_GENERIC=1 for the generic tile):
//
//	go test -run '^$' -bench GemmTraffic ./internal/kernels
func BenchmarkGemmTraffic(b *testing.B) {
	for vi, impl := range gemmImpls {
		for _, sh := range gemmTraffic[vi] {
			m, k, n := sh[0], sh[1], sh[2]
			a, bm, dst := make([]float32, impl.aLen(m, k, n)), make([]float32, impl.bLen(m, k, n)), make([]float32, m*n)
			fillRand(a, 1)
			fillRand(bm, 2)
			for _, kc := range []int{8, 64} {
				b.Run(fmt.Sprintf("%s/%dx%dx%d/kc%d", impl.name, m, k, n, kc), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						impl.tiled(dst, a, bm, m, k, n, kc)
					}
				})
			}
		}
	}
}
