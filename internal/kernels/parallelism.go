package kernels

import (
	"runtime"
	"sync/atomic"
)

// Every kernel in this package runs alone on its caller's goroutine, the D0
// "atomic" variants included: their combine order is an entropy draw, not a
// race between goroutines. Host parallelism lives where the paper has it —
// across GPUs: core.Job.RunStep runs the workers of a placement concurrently,
// one model replica each. The width of that fan-out is the one setting kept
// here, in the package the benchmark has always set it through.

// defaultWorkerCap bounds the fan-out when no explicit width is configured.
const defaultWorkerCap = 8

// cfgWorkers > 0 overrides the default width.
var cfgWorkers atomic.Int32

// SetParallelism sets how many simulated GPUs compute at once (also settable
// via the EASYSCALE_KERNEL_WORKERS environment variable, resolved by
// core.ConfigFromEnv at process start). workers <= 0 restores the default
// min(GOMAXPROCS, 8). The setting never affects numerics: which GPU finishes
// first cannot change the virtual-rank reduce order.
func SetParallelism(workers int) {
	if workers < 0 {
		workers = 0
	}
	cfgWorkers.Store(int32(workers))
}

// Parallelism returns the resolved number of GPUs that compute at once.
func Parallelism() int {
	if w := int(cfgWorkers.Load()); w > 0 {
		return w
	}
	return max(1, min(runtime.GOMAXPROCS(0), defaultWorkerCap))
}

// MatMulParallel is MatMul. It remains only because the frozen benchmark's
// kernels.gemm_par_gflops probe calls it; nothing else should.
func MatMulParallel(dst, a, b []float32, m, k, n, kc int) { MatMul(dst, a, b, m, k, n, kc) }
