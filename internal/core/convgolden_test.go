package core

import (
	"testing"

	"repro/internal/device"
)

// TestConvModelHashesGolden pins the conv kernels' bits across commits: a
// change that moves them the same way on every placement passes every
// consistency test, so the parameters of four fixed-seed conv jobs after 30
// steps are compared with hashes recorded before the im2col packers read a
// zero-bordered image. Under D2 (kc = device.AgnosticBlock) a V100-only and
// a V100+P100 placement must both land on the golden; without D2 each GPU
// type's own block (V100 64, P100 32) has its golden too.
func TestConvModelHashesGolden(t *testing.T) {
	golden := []struct {
		model          string
		d2, v100, p100 uint64
	}{
		{"resnet50", 0x1c6bae69dc06d230, 0xab8ef4a2ecfb7da8, 0xfa4aea6f203bc6a9},
		{"vgg19", 0x5ae053ee157ea532, 0xfcf1b71ba26db27b, 0x58486104e57eb2d3},
		{"shufflenetv2", 0x17ee43910c57f61e, 0x7181def97802973e, 0xdb29b522a7e500ac},
		{"yolov3", 0x34578f406de474c2, 0x6ad804b32ab1aa2b, 0x7f4a761acd5d042f},
	}
	run := func(t *testing.T, model string, d2 bool, pl Placement) uint64 {
		t.Helper()
		cfg := DefaultConfig(4)
		cfg.BatchPerEST = 4
		cfg.Seed = 3
		cfg.D2 = d2
		j, err := NewJob(cfg, model)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Attach(pl); err != nil {
			t.Fatal(err)
		}
		if err := j.RunSteps(30); err != nil {
			t.Fatal(err)
		}
		return j.ParamsHash()
	}
	for _, g := range golden {
		t.Run(g.model, func(t *testing.T) {
			for _, c := range []struct {
				name string
				d2   bool
				pl   Placement
				want uint64
			}{
				{"D2/V100", true, EvenPlacement(4, device.V100), g.d2},
				{"D2/V100+P100", true, EvenPlacement(4, device.V100, device.P100), g.d2},
				{"V100", false, EvenPlacement(4, device.V100), g.v100},
				{"P100", false, EvenPlacement(4, device.P100), g.p100},
			} {
				if got := run(t, g.model, c.d2, c.pl); got != c.want {
					t.Errorf("%s on %s: params hash %#x, want %#x", g.model, c.name, got, c.want)
				}
			}
		})
	}
}
