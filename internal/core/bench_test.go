package core

import (
	"testing"

	"repro/internal/device"
)

// BenchmarkTrainConvStep times one global step of resnet50, 4 ESTs × batch 4
// on one V100 and one P100: two ESTs per GPU force context switches, and the
// mixed types force the D2 kernels. The 100 warm-up steps stay outside the
// timer. `make prof` runs it under the CPU profiler.
func BenchmarkTrainConvStep(b *testing.B) {
	cfg := DefaultConfig(4)
	cfg.BatchPerEST = 4
	j, err := NewJob(cfg, "resnet50")
	if err != nil {
		b.Fatal(err)
	}
	if err := j.Attach(EvenPlacement(4, device.V100, device.P100)); err != nil {
		b.Fatal(err)
	}
	if err := j.RunSteps(100); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := j.RunStep(); err != nil {
			b.Fatal(err)
		}
	}
}
