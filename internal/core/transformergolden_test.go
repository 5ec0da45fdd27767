package core

import (
	"testing"

	"repro/internal/device"
)

// TestTransformerModelHashesGolden is the conv golden's sibling for the
// transformer workloads: their GELU, LayerNorm, softmax and attention bits
// would move on every placement alike and pass every consistency test, so
// the parameters of three fixed-seed D2 jobs after 30 steps, on a V100-only
// and a V100+P100 placement, are compared with hashes recorded before GELU
// ran as a vector kernel.
func TestTransformerModelHashesGolden(t *testing.T) {
	golden := []struct {
		model string
		want  uint64
	}{
		{"bert", 0x3d35cbc89135286f},
		{"electra", 0x504a0d75f87894dd},
		{"swintransformer", 0xdb54214c93fc8c61},
	}
	for _, g := range golden {
		t.Run(g.model, func(t *testing.T) {
			for _, pl := range []struct {
				name string
				pl   Placement
			}{
				{"D2/V100", EvenPlacement(4, device.V100)},
				{"D2/V100+P100", EvenPlacement(4, device.V100, device.P100)},
			} {
				cfg := DefaultConfig(4)
				cfg.BatchPerEST = 4
				cfg.Seed = 3
				cfg.D2 = true
				j, err := NewJob(cfg, g.model)
				if err != nil {
					t.Fatal(err)
				}
				if err := j.Attach(pl.pl); err != nil {
					t.Fatal(err)
				}
				if err := j.RunSteps(30); err != nil {
					t.Fatal(err)
				}
				if got := j.ParamsHash(); got != g.want {
					t.Errorf("%s on %s: params hash %#x, want %#x", g.model, pl.name, got, g.want)
				}
			}
		})
	}
}
