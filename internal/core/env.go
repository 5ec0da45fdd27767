package core

import (
	"os"
	"strconv"

	"repro/internal/kernels"
)

// Every EASYSCALE_* environment override is named here. Individual packages
// do not read the environment themselves (the kernels init used to), so the
// full override surface is this file.
const (
	// EnvKernelWorkers overrides how many simulated GPUs of a placement
	// compute at once in Job.RunStep (kernels.SetParallelism; the name
	// predates the per-GPU fan-out). Provably invisible to numerics.
	EnvKernelWorkers = "EASYSCALE_KERNEL_WORKERS"
	// EnvForceGeneric (any non-empty value) pins the GEMM micro-kernel and
	// elementwise dispatch to the pure-Go executable spec, disabling the
	// AVX2 path — the kill switch for suspected SIMD miscompiles. It is the
	// one documented exception to "only core reads the environment": the
	// kernels package resolves it in its own init, because the ISA must be
	// selected before the first kernel call and kernels cannot import core.
	// The two variants (AVX2 8×8, pure-Go 4×4) are bitwise identical (the
	// dispatch is provably invisible to numerics); the switch trades only
	// speed. kernels.SetISA changes the selection at runtime.
	EnvForceGeneric = "EASYSCALE_FORCE_GENERIC"
)

// init applies the process-wide override at startup: any binary that trains
// (they all import core) honours EASYSCALE_KERNEL_WORKERS.
func init() { applyEnv() }

// applyEnv sets the process-wide fan-out width from EASYSCALE_KERNEL_WORKERS.
// A malformed or non-positive value is ignored (the documented
// fallback-to-default behaviour).
func applyEnv() {
	if n, ok := envInt(EnvKernelWorkers); ok {
		kernels.SetParallelism(n)
	}
}

// envInt parses a positive integer from the environment.
func envInt(key string) (int, bool) {
	v := os.Getenv(key)
	if v == "" {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}
