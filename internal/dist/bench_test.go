package dist

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
)

// BenchmarkChurnLive times the benchmark's churn_live op: one live-migrating
// bert run over loopback, six phases of two steps on 4, 2, 2 mixed, 2, 2
// mixed and 1 workers, so every op pays five scale events. One warm-up op
// stays outside the timer. `make prof-churn` runs it under the CPU profiler.
func BenchmarkChurnLive(b *testing.B) {
	v, p := device.V100, device.P100
	var phases []Phase
	for _, devs := range [][]device.Type{{v, v, v, v}, {v, v}, {v, p}, {v, v}, {v, p}, {v}} {
		phases = append(phases, Phase{Placement: core.EvenPlacement(4, devs...), Steps: 2})
	}
	cfg := core.DefaultConfig(4)
	cfg.BatchPerEST = 4
	if _, err := Run(cfg, "bert", phases, WithLiveMigration()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := Run(cfg, "bert", phases, WithLiveMigration()); err != nil {
			b.Fatal(err)
		}
	}
}
