package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// The D0 ("atomic") kernels as a spec: split the work into at most `parts`
// contiguous chunks of ceil(n/parts) items, form each chunk's partial in a
// fixed serial order, and add the partials onto +0 in the order nondetPerm
// draws. Too little work for the split (parts <= 1, or fewer than the
// kernel's minimum) is one chunk, added without a draw.

// specChunks returns the [lo, hi) bounds of the chunks of n items.
func specChunks(n, parts int) [][2]int {
	size := (n + parts - 1) / parts
	var out [][2]int
	for lo := 0; lo < n; lo += size {
		out = append(out, [2]int{lo, min(lo+size, n)})
	}
	return out
}

// specCombine adds the width-wide partials onto +0 in nondetPerm's order, or
// returns the single partial as it is.
func specCombine(parts [][]float32, width int, split bool) []float32 {
	if !split {
		return parts[0]
	}
	out := make([]float32, width)
	for _, c := range nondetPerm(len(parts)) {
		for i, v := range parts[c] {
			out[i] += v
		}
	}
	return out
}

func sumAtomicSpec(xs []float32, workers int) float32 {
	split := workers > 1 && len(xs) >= 2*workers
	bounds := [][2]int{{0, len(xs)}}
	if split {
		bounds = specChunks(len(xs), workers)
	}
	parts := make([][]float32, len(bounds))
	for c, r := range bounds {
		var s float32
		for _, v := range xs[r[0]:r[1]] {
			s += v
		}
		parts[c] = []float32{s}
	}
	return specCombine(parts, 1, split)[0]
}

func meanVarAtomicSpec(xs []float32, workers int) (mean, variance float32) {
	if len(xs) == 0 {
		return 0, 0
	}
	mean = sumAtomicSpec(xs, workers) / float32(len(xs))
	devs := make([]float32, len(xs))
	for i, v := range xs {
		d := v - mean
		devs[i] = d * d
	}
	return mean, sumAtomicSpec(devs, workers) / float32(len(xs))
}

func colSumAtomicSpec(src []float32, rows, cols, workers int) []float32 {
	split := workers > 1 && rows >= 2*workers
	bounds := [][2]int{{0, rows}}
	if split {
		bounds = specChunks(rows, workers)
	}
	parts := make([][]float32, len(bounds))
	for c, r := range bounds {
		parts[c] = make([]float32, cols)
		for row := r[0]; row < r[1]; row++ {
			for j, v := range src[row*cols : (row+1)*cols] {
				parts[c][j] += v
			}
		}
	}
	return specCombine(parts, cols, split)
}

func matMulAtomicSpec(a, b []float32, m, k, n, splits int) []float32 {
	split := splits > 1 && k >= splits
	bounds := [][2]int{{0, k}}
	if split {
		bounds = specChunks(k, splits)
	}
	parts := make([][]float32, len(bounds))
	for c, r := range bounds {
		parts[c] = make([]float32, m*n)
		for i := 0; i < m; i++ {
			prow := parts[c][i*n : (i+1)*n]
			for kk := r[0]; kk < r[1]; kk++ {
				aik := a[i*k+kk]
				for j, bv := range b[kk*n : (kk+1)*n] {
					prow[j] += aik * bv
				}
			}
		}
	}
	return specCombine(parts, m*n, split)
}

// fuzzFloats reads raw as little-endian float32 bits, cycled to n values.
func fuzzFloats(raw []byte, n int) []float32 {
	out := make([]float32, n)
	if words := len(raw) / 4; words > 0 {
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i%words*4:]))
		}
	}
	return out
}

func floatBytes(xs []float32) []byte {
	raw := make([]byte, 4*len(xs))
	for i, v := range xs {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return raw
}

// FuzzAtomicVsSpec holds SumAtomic, MeanVarAtomic, ColSumAtomic and
// MatMulAtomicSplitK to the chunk-partial spec, bitwise, for a fixed entropy
// state: the output of a D0 kernel is a function of its inputs and one
// entropy draw per combine, whatever its chunk count (1, 2, 3, 8 or 13) and
// shape — including k < splits and rows < 2·workers, which take the
// deterministic kernel without a draw — on arbitrary float32 bits.
func FuzzAtomicVsSpec(f *testing.F) {
	f.Add(floatBytes(sumOperands(257, 1, false)), uint8(3), uint8(4), uint8(40), uint8(5), uint64(1))
	f.Add(floatBytes(sumOperands(64, 2, true)), uint8(4), uint8(7), uint8(30), uint8(3), uint64(2))
	f.Add(floatBytes(sumOperands(100, 6, false)), uint8(1), uint8(3), uint8(45), uint8(4), uint64(6))
	f.Add(floatBytes(sumOperands(9, 3, false)), uint8(2), uint8(2), uint8(5), uint8(8), uint64(3))
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0x7f, 0, 0, 0, 0x80}, uint8(1), uint8(1), uint8(2), uint8(1), uint64(4))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint8(0), uint64(5))
	f.Fuzz(func(t *testing.T, raw []byte, pick, m8, k8, n8 uint8, seed uint64) {
		workers := []int{1, 2, 3, 8, 13}[int(pick)%5]
		m, k, n := int(m8%9), int(k8%48), int(n8%9)
		xs := fuzzFloats(raw, len(raw)/4)
		cols := n + 1
		rows := len(xs) / cols
		a, b := fuzzFloats(raw, m*k), fuzzFloats(raw[min(len(raw), 4):], k*n)
		prev := entropy.Load()
		defer entropy.Store(prev)
		check := func(what string, got, want []float32) {
			t.Helper()
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s workers=%d: element %d: got bits %#08x, spec %#08x",
						what, workers, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}

		entropy.Store(seed)
		got := SumAtomic(xs, workers)
		entropy.Store(seed)
		check(fmt.Sprintf("SumAtomic n=%d", len(xs)), []float32{got}, []float32{sumAtomicSpec(xs, workers)})

		entropy.Store(seed)
		mean, variance := MeanVarAtomic(xs, workers)
		entropy.Store(seed)
		wm, wv := meanVarAtomicSpec(xs, workers)
		check(fmt.Sprintf("MeanVarAtomic n=%d", len(xs)), []float32{mean, variance}, []float32{wm, wv})

		colSum := make([]float32, cols)
		entropy.Store(seed)
		ColSumAtomic(colSum, xs[:rows*cols], rows, cols, workers)
		entropy.Store(seed)
		check(fmt.Sprintf("ColSumAtomic %dx%d", rows, cols), colSum, colSumAtomicSpec(xs[:rows*cols], rows, cols, workers))

		prevISA := ActiveISA()
		defer func() {
			if err := SetISA(prevISA); err != nil {
				t.Fatal(err)
			}
		}()
		for _, isa := range AvailableISAs() {
			if err := SetISA(isa); err != nil {
				t.Fatal(err)
			}
			dst := make([]float32, m*n)
			entropy.Store(seed)
			MatMulAtomicSplitK(dst, a, b, m, k, n, workers)
			entropy.Store(seed)
			check(fmt.Sprintf("MatMulAtomicSplitK[%s] m=%d k=%d n=%d", isa, m, k, n), dst, matMulAtomicSpec(a, b, m, k, n, workers))
		}
	})
}
