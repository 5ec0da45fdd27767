package core

import (
	"testing"

	"repro/internal/kernels"
)

// TestConfigFromEnvRoundTrip: EASYSCALE_KERNEL_WORKERS sets the fan-out
// width process-wide.
func TestConfigFromEnvRoundTrip(t *testing.T) {
	// restore the process-wide fan-out width whatever happens below
	t.Cleanup(func() { kernels.SetParallelism(0) })

	t.Setenv(EnvKernelWorkers, "3")

	applyEnv()
	if got := kernels.Parallelism(); got != 3 {
		t.Fatalf("fan-out width = %d, want 3 from env", got)
	}
}

// TestConfigFromEnvIgnoresBadValues: malformed or non-positive overrides are
// ignored — the documented fallback-to-default behaviour.
func TestConfigFromEnvIgnoresBadValues(t *testing.T) {
	t.Cleanup(func() { kernels.SetParallelism(0) })
	kernels.SetParallelism(0)
	defWorkers := kernels.Parallelism()

	t.Setenv(EnvKernelWorkers, "-2")

	applyEnv()
	if got := kernels.Parallelism(); got != defWorkers {
		t.Fatalf("non-positive worker count applied: %d (default %d)", got, defWorkers)
	}
}
