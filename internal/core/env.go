package core

import (
	"os"
	"strconv"
	"time"

	"repro/internal/kernels"
)

// Every EASYSCALE_* environment override, resolved in exactly one place:
// ConfigFromEnv. Individual packages no longer read the environment
// themselves (the kernels init and the dist timeout resolution used to),
// so the full override surface is this file.
const (
	// EnvDistTimeout (a time.ParseDuration string) bounds every blocking
	// network operation of the distributed runtime when
	// Config.DistTimeout is zero.
	EnvDistTimeout = "EASYSCALE_DIST_TIMEOUT"
	// EnvKernelWorkers overrides how many simulated GPUs of a placement
	// compute at once in Job.RunStep (kernels.SetParallelism; the name
	// predates the per-GPU fan-out). Provably invisible to numerics.
	EnvKernelWorkers = "EASYSCALE_KERNEL_WORKERS"
	// EnvForceGeneric (any non-empty value) pins the GEMM micro-kernel and
	// elementwise dispatch to the pure-Go executable spec, disabling the
	// AVX2 path — the kill switch for suspected SIMD miscompiles. It is the
	// one documented exception to "only ConfigFromEnv reads the
	// environment": the kernels package resolves it in its own init, because
	// the ISA must be selected before the first kernel call and kernels
	// cannot import core. The two variants (AVX2 8×8, pure-Go 4×4) are
	// bitwise identical (the dispatch is provably invisible to numerics);
	// the switch trades only speed. kernels.SetISA changes the selection at
	// runtime.
	EnvForceGeneric = "EASYSCALE_FORCE_GENERIC"
)

// init applies the process-wide override at startup: any binary that trains
// (they all import core) honours EASYSCALE_KERNEL_WORKERS without calling
// ConfigFromEnv explicitly.
func init() { ConfigFromEnv(Config{}) }

// ConfigFromEnv is the single resolution point for environment overrides:
// it returns cfg with every field still at its zero value filled from the
// corresponding EASYSCALE_* variable, and (re)applies the process-wide
// fan-out width. Explicit config values always win over the environment;
// malformed or non-positive environment values are ignored (the documented
// fallback-to-default behaviour). None of these overrides participate in
// checkpoint identity — timeouts and how many GPUs compute at once never
// affect numerics.
func ConfigFromEnv(cfg Config) Config {
	if cfg.DistTimeout == 0 {
		if d, ok := envDuration(EnvDistTimeout); ok {
			cfg.DistTimeout = d
		}
	}
	if n, ok := envInt(EnvKernelWorkers); ok {
		kernels.SetParallelism(n)
	}
	return cfg
}

// envDuration parses a positive time.ParseDuration value from the
// environment.
func envDuration(key string) (time.Duration, bool) {
	v := os.Getenv(key)
	if v == "" {
		return 0, false
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, false
	}
	return d, true
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
