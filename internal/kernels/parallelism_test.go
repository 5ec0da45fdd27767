package kernels

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// TestParallelismNeverAffectsNumerics pins the accessor pair and what is left
// of its kernel-level meaning: the setting round-trips, non-positive values
// restore min(GOMAXPROCS, 8), and no kernel reads it — MatMulParallel, the
// one entry point that used to, returns MatMul's bits at every width. (What
// the width does change, the GPU fan-out, is swept in internal/core.)
func TestParallelismNeverAffectsNumerics(t *testing.T) {
	defer SetParallelism(0)
	s := rng.New(661)
	m, k, n := 29, 120, 31
	a := randSlice(s, m*k)
	b := randSlice(s, k*n)
	seq := make([]float32, m*n)
	MatMul(seq, a, b, m, k, n, 16)

	for _, workers := range []int{1, 2, 3, 5, 8, 13} {
		SetParallelism(workers)
		if got := Parallelism(); got != workers {
			t.Fatalf("Parallelism() = %d after SetParallelism(%d)", got, workers)
		}
		par := make([]float32, m*n)
		MatMulParallel(par, a, b, m, k, n, 16)
		for i := range par {
			if math.Float32bits(par[i]) != math.Float32bits(seq[i]) {
				t.Fatalf("MatMulParallel at width %d: element %d differs bitwise: %v vs %v", workers, i, par[i], seq[i])
			}
		}
	}

	def := max(1, min(runtime.GOMAXPROCS(0), defaultWorkerCap))
	for _, reset := range []int{0, -3} {
		SetParallelism(5)
		SetParallelism(reset)
		if got := Parallelism(); got != def {
			t.Fatalf("Parallelism() = %d after SetParallelism(%d), want default %d", got, reset, def)
		}
	}
}
