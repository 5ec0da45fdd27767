package core

import (
	"testing"
	"time"

	"repro/internal/kernels"
)

// TestConfigFromEnvRoundTrip: every EASYSCALE_* override fills only zero
// config fields, applies the fan-out width process-wide, and explicit values
// always win.
func TestConfigFromEnvRoundTrip(t *testing.T) {
	// restore the process-wide fan-out width whatever happens below
	t.Cleanup(func() { kernels.SetParallelism(0) })

	t.Setenv(EnvDistTimeout, "7s")
	t.Setenv(EnvKernelWorkers, "3")

	cfg := ConfigFromEnv(Config{})
	if cfg.DistTimeout != 7*time.Second {
		t.Fatalf("DistTimeout = %v, want 7s from env", cfg.DistTimeout)
	}
	if got := kernels.Parallelism(); got != 3 {
		t.Fatalf("fan-out width = %d, want 3 from env", got)
	}

	// explicit config wins over the environment
	cfg = ConfigFromEnv(Config{DistTimeout: 3 * time.Second})
	if cfg.DistTimeout != 3*time.Second {
		t.Fatalf("explicit DistTimeout overridden: %v", cfg.DistTimeout)
	}
}

// TestConfigFromEnvIgnoresBadValues: malformed or non-positive overrides are
// ignored — the documented fallback-to-default behaviour.
func TestConfigFromEnvIgnoresBadValues(t *testing.T) {
	t.Cleanup(func() { kernels.SetParallelism(0) })
	kernels.SetParallelism(0)
	defWorkers := kernels.Parallelism()

	t.Setenv(EnvDistTimeout, "not-a-duration")
	t.Setenv(EnvKernelWorkers, "-2")

	cfg := ConfigFromEnv(Config{})
	if cfg.DistTimeout != 0 {
		t.Fatalf("malformed timeout applied: %v", cfg.DistTimeout)
	}
	if got := kernels.Parallelism(); got != defWorkers {
		t.Fatalf("non-positive worker count applied: %d (default %d)", got, defWorkers)
	}

	// negative durations are rejected too
	t.Setenv(EnvDistTimeout, "-5s")
	if cfg := ConfigFromEnv(Config{}); cfg.DistTimeout != 0 {
		t.Fatalf("negative timeout applied: %v", cfg.DistTimeout)
	}
}
