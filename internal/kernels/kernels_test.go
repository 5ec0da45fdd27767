package kernels

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func randSlice(s *rng.Stream, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		// Mix magnitudes so accumulation-order changes are visible in the
		// low-order bits.
		out[i] = s.NormFloat32() * float32(math.Pow(10, float64(s.Intn(5)-2)))
	}
	return out
}

func sum64(xs []float32) float64 {
	var s float64
	for _, v := range xs {
		s += float64(v)
	}
	return s
}

func TestSumBlockedDegenerate(t *testing.T) {
	xs := randSlice(rng.New(1), 257)
	if SumBlocked(xs, 0) != SumSequential(xs) {
		t.Fatal("block=0 must equal sequential")
	}
	if SumBlocked(xs, len(xs)) != SumSequential(xs) {
		t.Fatal("block=len must equal sequential")
	}
	if SumBlocked(nil, 4) != 0 {
		t.Fatal("empty sum must be 0")
	}
}

func TestSumBlockedDeterministic(t *testing.T) {
	xs := randSlice(rng.New(2), 1000)
	a := SumBlocked(xs, 32)
	for i := 0; i < 10; i++ {
		if SumBlocked(xs, 32) != a {
			t.Fatal("SumBlocked must be deterministic for a fixed block size")
		}
	}
}

func TestSumBlockedBlockSizeChangesBits(t *testing.T) {
	xs := randSlice(rng.New(3), 4096)
	a := SumBlocked(xs, 16)
	b := SumBlocked(xs, 64)
	if math.Float32bits(a) == math.Float32bits(b) {
		t.Skip("block sizes happened to agree bitwise on this input (rare)")
	}
	if math.Abs(float64(a)-float64(b)) > 1e-2*math.Abs(sum64(xs))+1 {
		t.Fatalf("blocked sums too far apart: %v vs %v", a, b)
	}
}

func TestSumBlockedCloseToFloat64(t *testing.T) {
	f := func(seed uint64) bool {
		xs := randSlice(rng.New(seed), 512)
		ref := sum64(xs)
		got := float64(SumBlocked(xs, 32))
		return math.Abs(got-ref) <= 1e-3*math.Abs(ref)+1e-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// sumBlockedSpec is SumBlocked's executable specification, kept apart from
// the code it checks: one block at a time, each summed left to right from
// +0, its partial added onto the total.
func sumBlockedSpec(xs []float32, block int) float32 {
	if block <= 0 || block >= len(xs) {
		return SumSequential(xs)
	}
	var total float32
	for i := 0; i < len(xs); i += block {
		var part float32
		for _, v := range xs[i:min(i+block, len(xs))] {
			part += v
		}
		total += part
	}
	return total
}

// sumOperands draws n addends spread over many binades, so that any change
// of addition order shows in the low bits, with NaN, ±Inf, −0 and ±1e38
// (whose sums overflow or not depending on order) sprinkled in when asked.
func sumOperands(n int, seed uint64, withSpecials bool) []float32 {
	xs := make([]float32, n)
	s := seed
	for i := range xs {
		r := splitmix64(&s)
		xs[i] = float32(int32(r)) * float32(math.Ldexp(1, int(r>>32)%24-40))
	}
	if withSpecials {
		big := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
			float32(math.Copysign(0, -1)), 1e38, -1e38, 1e38, -1e38}
		for j := 0; j < n/16; j++ {
			xs[splitmix64(&s)%uint64(n)] = big[splitmix64(&s)%uint64(len(big))]
		}
	}
	return xs
}

// TestSumBlockedMatchesSpec pins the eight-lane SumBlocked to the serial
// loop at every block size 1–17 and length 0–300: the full eight-block
// groups, every tail length and the degenerate single block, with and
// without specials.
func TestSumBlockedMatchesSpec(t *testing.T) {
	for block := 1; block <= 17; block++ {
		for n := 0; n <= 300; n++ {
			for _, sp := range []bool{false, true} {
				xs := sumOperands(n, uint64(block*1000+n), sp)
				got, want := SumBlocked(xs, block), sumBlockedSpec(xs, block)
				if !sameBits(got, want) {
					t.Fatalf("block %d n %d specials %v: got bits %#08x (%v), want %#08x (%v)",
						block, n, sp, math.Float32bits(got), got, math.Float32bits(want), want)
				}
			}
		}
	}
}

// FuzzSumBlockedVsSpec feeds SumBlocked raw float32 bit patterns — every
// binade, NaN payload, infinity and signed zero the fuzzer finds — at any
// block size, against the serial spec.
func FuzzSumBlockedVsSpec(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 128, 0, 0, 192, 127}, int16(1))
	f.Add(make([]byte, 4*67), int16(8))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over and again"), int16(3))
	f.Fuzz(func(t *testing.T, raw []byte, block int16) {
		xs := make([]float32, len(raw)/4)
		for i := range xs {
			xs[i] = math.Float32frombits(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
		}
		got, want := SumBlocked(xs, int(block)), sumBlockedSpec(xs, int(block))
		if !sameBits(got, want) {
			t.Fatalf("n %d block %d: got bits %#08x, want %#08x", len(xs), block, math.Float32bits(got), math.Float32bits(want))
		}
	})
}

// meanVarSpec is MeanVar's two-pass specification: the blocked mean, then
// SumBlocked over a buffer of the squared deviations.
func meanVarSpec(xs []float32, block int) (mean, variance float32) {
	if len(xs) == 0 {
		return 0, 0
	}
	mean = SumBlocked(xs, block) / float32(len(xs))
	devs := make([]float32, len(xs))
	for i, v := range xs {
		d := v - mean
		devs[i] = float32(d * d)
	}
	return mean, SumBlocked(devs, block) / float32(len(xs))
}

// FuzzFusedReductionsVsSpec feeds the one-pass reductions raw float32 bit
// patterns (NaN payloads, infinities, signed zeros, denormals, every binade)
// at the block sizes the devices and tests use, under every ISA: MeanVar
// must equal its two-pass spec, and SumDotBlocked must equal SumBlocked(a)
// and SumBlocked(MulIntoF32(a, b)).
func FuzzFusedReductionsVsSpec(f *testing.F) {
	bitsOf := func(xs ...float32) []byte {
		out := make([]byte, 0, 4*len(xs))
		for _, x := range xs {
			b := math.Float32bits(x)
			out = append(out, byte(b), byte(b>>8), byte(b>>16), byte(b>>24))
		}
		return out
	}
	nanPayload := math.Float32frombits(0x7fc00123)
	f.Add(bitsOf(1, float32(math.Copysign(0, -1)), nanPayload, math.SmallestNonzeroFloat32, 3, -2, float32(math.Inf(1)), 0.5))
	f.Add(bitsOf(1e38, -1e38, 1e38, 1e-40, -1e-45, 7, float32(math.Inf(-1)), 2, 1e20, -3))
	f.Add(bitsOf(sumOperands(260, 1, false)...))
	f.Add(bitsOf(sumOperands(130, 2, true)...))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over and again and again"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 8
		a, b := make([]float32, n), make([]float32, n)
		for i := range 2 * n {
			v := math.Float32frombits(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
			if i < n {
				a[i] = v
			} else {
				b[i-n] = v
			}
		}
		prev := ActiveISA()
		defer func() {
			if err := SetISA(prev); err != nil {
				t.Fatal(err)
			}
		}()
		ab := make([]float32, n)
		for _, isa := range AvailableISAs() {
			if err := SetISA(isa); err != nil {
				t.Fatal(err)
			}
			MulIntoF32(ab, a, b)
			for _, block := range []int{0, 1, 3, 8, 32, 64, 100} {
				mean, variance := MeanVar(a, block)
				wantMean, wantVar := meanVarSpec(a, block)
				sum, dot := SumDotBlocked(a, b, block)
				wantSum, wantDot := SumBlocked(a, block), SumBlocked(ab, block)
				for _, c := range []struct {
					what      string
					got, want float32
				}{{"MeanVar mean", mean, wantMean}, {"MeanVar variance", variance, wantVar},
					{"SumDotBlocked sum", sum, wantSum}, {"SumDotBlocked dot", dot, wantDot}} {
					if !sameBits(c.got, c.want) {
						t.Fatalf("%s n %d block %d: %s got bits %#08x, want %#08x",
							isa, n, block, c.what, math.Float32bits(c.got), math.Float32bits(c.want))
					}
				}
			}
		}
	})
}

func TestSumAtomicCorrectAndNondeterministic(t *testing.T) {
	xs := randSlice(rng.New(4), 1<<14)
	ref := sum64(xs)
	seen := map[uint32]bool{}
	for i := 0; i < 200; i++ {
		v := SumAtomic(xs, 8)
		if math.Abs(float64(v)-ref) > 1e-3*math.Abs(ref)+1 {
			t.Fatalf("SumAtomic too far from reference: %v vs %v", v, ref)
		}
		seen[math.Float32bits(v)] = true
	}
	if len(seen) < 2 {
		t.Fatal("SumAtomic produced identical bits over 200 runs; expected variation from the entropy-drawn combine order")
	}
}

func TestSumAtomicSmallFallsBack(t *testing.T) {
	xs := []float32{1, 2, 3}
	if SumAtomic(xs, 8) != SumSequential(xs) {
		t.Fatal("small inputs must fall back to sequential")
	}
}

func TestMeanVar(t *testing.T) {
	xs := []float32{1, 2, 3, 4}
	m, v := MeanVar(xs, 0)
	if m != 2.5 {
		t.Fatalf("mean=%v", m)
	}
	if math.Abs(float64(v)-1.25) > 1e-6 {
		t.Fatalf("var=%v", v)
	}
	m0, v0 := MeanVar(nil, 0)
	if m0 != 0 || v0 != 0 {
		t.Fatal("empty MeanVar must be 0,0")
	}
}

func TestMeanVarAtomicClose(t *testing.T) {
	xs := randSlice(rng.New(5), 4096)
	m1, v1 := MeanVar(xs, 0)
	m2, v2 := MeanVarAtomic(xs, 8)
	if math.Abs(float64(m1-m2)) > 1e-3 || math.Abs(float64(v1-v2)) > 1e-2*math.Abs(float64(v1))+1e-3 {
		t.Fatalf("atomic meanvar too far: (%v,%v) vs (%v,%v)", m1, v1, m2, v2)
	}
	if _, v := MeanVarAtomic(nil, 4); v != 0 {
		t.Fatal("empty MeanVarAtomic must be 0")
	}
}

func matmulRef64(a, b []float32, m, k, n int) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += float64(a[i*k+kk]) * float64(b[kk*n+j])
			}
			out[i*n+j] = s
		}
	}
	return out
}

func assertClose(t *testing.T, got []float32, ref []float64, tol float64, what string) {
	t.Helper()
	for i := range got {
		if math.Abs(float64(got[i])-ref[i]) > tol*(math.Abs(ref[i])+1) {
			t.Fatalf("%s[%d] = %v, ref %v", what, i, got[i], ref[i])
		}
	}
}

func TestMatMulVariantsAgainstReference(t *testing.T) {
	s := rng.New(6)
	m, k, n := 7, 33, 5
	a := randSlice(s, m*k)
	b := randSlice(s, k*n)
	ref := matmulRef64(a, b, m, k, n)

	dst := make([]float32, m*n)
	for _, kc := range []int{0, 1, 4, 8, 16, 100} {
		MatMul(dst, a, b, m, k, n, kc)
		assertClose(t, dst, ref, 1e-4, "MatMul")
	}

	// Aᵀ·B: build aT as [k×m]
	aT := make([]float32, k*m)
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			aT[kk*m+i] = a[i*k+kk]
		}
	}
	MatMulATB(dst, aT, b, m, k, n, 8)
	assertClose(t, dst, ref, 1e-4, "MatMulATB")

	// A·Bᵀ: build bT as [n×k]
	bT := make([]float32, n*k)
	for kk := 0; kk < k; kk++ {
		for j := 0; j < n; j++ {
			bT[j*k+kk] = b[kk*n+j]
		}
	}
	MatMulABT(dst, a, bT, m, k, n, 8)
	assertClose(t, dst, ref, 1e-4, "MatMulABT")
}

func TestMatMulKCChangesBits(t *testing.T) {
	s := rng.New(7)
	m, k, n := 4, 512, 4
	a := randSlice(s, m*k)
	b := randSlice(s, k*n)
	d1 := make([]float32, m*n)
	d2 := make([]float32, m*n)
	MatMul(d1, a, b, m, k, n, 16)
	MatMul(d2, a, b, m, k, n, 64)
	same := true
	for i := range d1 {
		if math.Float32bits(d1[i]) != math.Float32bits(d2[i]) {
			same = false
			break
		}
	}
	if same {
		t.Skip("kc variants agreed bitwise on this input (rare)")
	}
}

func TestMatMulDeterministicForFixedKC(t *testing.T) {
	s := rng.New(8)
	m, k, n := 3, 257, 3
	a := randSlice(s, m*k)
	b := randSlice(s, k*n)
	d1 := make([]float32, m*n)
	d2 := make([]float32, m*n)
	MatMul(d1, a, b, m, k, n, 32)
	for r := 0; r < 5; r++ {
		MatMul(d2, a, b, m, k, n, 32)
		for i := range d1 {
			if math.Float32bits(d1[i]) != math.Float32bits(d2[i]) {
				t.Fatal("fixed-kc MatMul must be bitwise deterministic")
			}
		}
	}
}

func TestMatMulAtomicSplitK(t *testing.T) {
	s := rng.New(9)
	m, k, n := 4, 2048, 4
	a := randSlice(s, m*k)
	b := randSlice(s, k*n)
	ref := matmulRef64(a, b, m, k, n)
	dst := make([]float32, m*n)
	distinct := map[uint64]bool{}
	for r := 0; r < 100; r++ {
		MatMulAtomicSplitK(dst, a, b, m, k, n, 8)
		assertClose(t, dst, ref, 1e-3, "MatMulAtomicSplitK")
		var h uint64 = 1469598103934665603
		for _, v := range dst {
			h ^= uint64(math.Float32bits(v))
			h *= 1099511628211
		}
		distinct[h] = true
	}
	if len(distinct) < 2 {
		t.Fatal("split-K atomic GEMM produced identical bits over 100 runs; expected variation from the entropy-drawn combine order")
	}
	// degenerate split falls back to deterministic MatMul
	MatMulAtomicSplitK(dst, a, b, m, k, n, 1)
	assertClose(t, dst, ref, 1e-3, "MatMulAtomicSplitK splits=1")
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(make([]float32, 4), make([]float32, 3), make([]float32, 4), 2, 2, 2, 0)
}

func TestColSumBlocked(t *testing.T) {
	src := []float32{1, 2, 3, 4, 5, 6} // 3 rows x 2 cols
	dst := make([]float32, 2)
	ColSumBlocked(dst, src, 3, 2, 0)
	if dst[0] != 9 || dst[1] != 12 {
		t.Fatalf("ColSumBlocked: %v", dst)
	}
	ColSumBlocked(dst, src, 3, 2, 2)
	if dst[0] != 9 || dst[1] != 12 {
		t.Fatalf("ColSumBlocked block=2: %v", dst)
	}
}

// colSumSpec is ColSumBlocked's serial loop: per column, each block's rows
// are summed from +0 in row order, and the block sums into dst in block
// order.
func colSumSpec(dst, src []float32, rows, cols, block int) {
	if block <= 0 || block > rows {
		block = rows
	}
	clear(dst)
	part := make([]float32, cols)
	for r0 := 0; r0 < rows; r0 += block {
		clear(part)
		for r := r0; r < min(r0+block, rows); r++ {
			for j, v := range src[r*cols : (r+1)*cols] {
				part[j] += v
			}
		}
		for j := range dst {
			dst[j] += part[j]
		}
	}
}

// TestColSumBlockedMatchesSpec: the vector adds keep every column's order, so
// ColSumBlocked equals its serial loop under the bitwise contract (sameBits)
// under every ISA, on widths around the eight-lane body and with NaN, ±Inf
// and −0 in the input.
func TestColSumBlockedMatchesSpec(t *testing.T) {
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 1e30, -1e30}
	s := rng.New(12)
	forEachISA(t, func(t *testing.T) {
		for _, rows := range []int{1, 3, 16, 37} {
			for _, cols := range []int{1, 7, 8, 9, 24, 33} {
				src := randSlice(s, rows*cols)
				for i := range src {
					if s.Intn(5) == 0 {
						src[i] = specials[s.Intn(len(specials))]
					}
				}
				for _, block := range []int{0, 1, 4, 8, rows} {
					want, got := make([]float32, cols), make([]float32, cols)
					colSumSpec(want, src, rows, cols, block)
					ColSumBlocked(got, src, rows, cols, block)
					diffBits(t, fmt.Sprintf("rows %d cols %d block %d", rows, cols, block), got, want)
				}
			}
		}
	})
}

func TestColSumAtomicClose(t *testing.T) {
	s := rng.New(10)
	rows, cols := 1024, 8
	src := randSlice(s, rows*cols)
	ref := make([]float32, cols)
	ColSumBlocked(ref, src, rows, cols, 0)
	got := make([]float32, cols)
	ColSumAtomic(got, src, rows, cols, 8)
	for j := range got {
		if math.Abs(float64(got[j]-ref[j])) > 1e-2*math.Abs(float64(ref[j]))+1e-1 {
			t.Fatalf("ColSumAtomic[%d] = %v, ref %v", j, got[j], ref[j])
		}
	}
	// small input falls back
	small := []float32{1, 2, 3, 4}
	got2 := make([]float32, 2)
	ColSumAtomic(got2, small, 2, 2, 8)
	if got2[0] != 4 || got2[1] != 6 {
		t.Fatalf("ColSumAtomic fallback: %v", got2)
	}
}
