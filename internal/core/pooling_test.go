package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/pool"
)

// TestPoolingInvisibleToParamsHash runs the same job with the arena enabled
// and disabled and asserts the trained parameters hash identically — buffer
// reuse changes where scratch lives, never the accumulation order, so the
// consistency fingerprints must not move. Covered per determinism level
// because D0/D1 and DetNone exercise different kernel variants, and on two
// GPUs computing at once, where both replicas draw from the arena together,
// each taking its tensor headers from its own scope's slab (`make race` runs
// it).
func TestPoolingInvisibleToParamsHash(t *testing.T) {
	kernels.SetParallelism(2)
	defer kernels.SetParallelism(0)
	one, two := EvenPlacement(4, device.V100), EvenPlacement(4, device.V100, device.V100)
	for _, tc := range []struct {
		name      string
		model     string
		level     Determinism
		placement Placement
	}{
		{"vgg19-d1", "vgg19", D1, one},
		{"electra-d0", "electra", D0, one},
		{"resnet50-d1-2gpu", "resnet50", D1, two},
		{"electra-d0-2gpu", "electra", D0, two},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() uint64 {
				j := mustJob(t, testCfg(tc.level, false, 4), tc.model, tc.placement)
				if err := j.RunSteps(3); err != nil {
					t.Fatal(err)
				}
				return j.ParamsHash()
			}
			pooled := run()

			restore := pool.Disable()
			unpooled := run()
			restore()

			if pooled != unpooled {
				t.Fatalf("pooling changed the parameter hash: %x vs %x", pooled, unpooled)
			}
		})
	}
}
