package elastic

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
)

// drift is the largest absolute parameter difference between two jobs.
func drift(a, b *core.Job) float64 {
	pa, pb := a.Workload.Params(), b.Workload.Params()
	var m float64
	for i := range pa {
		for j, v := range pa[i].Value.Data {
			m = math.Max(m, math.Abs(float64(v)-float64(pb[i].Value.Data[j])))
		}
	}
	return m
}

// TestHeadlineTableOnOneEngine is the paper's headline on one engine: every
// row is a core.Job fed the same number of samples, and only the policy over
// the GPU count differs. EasyScale on 1, 2 and 4 GPUs is bitwise the 4-GPU
// DDP run; VirtualFlow keeps the semantics but not the reduction order, so it
// drifts in the last bits; TorchElastic and Pollux change the semantics and
// land somewhere else entirely.
func TestHeadlineTableOnOneEngine(t *testing.T) {
	const samples = 384
	for _, workload := range []string{"vgg19", "bert"} {
		t.Run(workload, func(t *testing.T) {
			// train feeds a job `samples` samples, rounding the last step up
			train := func(j *core.Job) *core.Job {
				perStep := j.Cfg.NumESTs * j.Cfg.BatchPerEST
				if err := j.RunSteps((samples + perStep - 1) / perStep); err != nil {
					t.Fatal(err)
				}
				return j
			}
			baseline := func(fw Framework, world int) *core.Job {
				j, err := NewBaselineJob(baseCfg(fw), workload, world)
				if err != nil {
					t.Fatal(err)
				}
				return train(j)
			}
			ref := baseline(FixedDDP, 4)

			for _, gpus := range []int{1, 2, 4} {
				cfg := ref.Cfg
				cfg.Level = core.D1
				es, err := core.NewJob(cfg, workload)
				if err != nil {
					t.Fatal(err)
				}
				types := make([]device.Type, gpus)
				for i := range types {
					types[i] = device.V100
				}
				if err := es.Attach(core.EvenPlacement(cfg.NumESTs, types...)); err != nil {
					t.Fatal(err)
				}
				if !core.ParamsEqual(ref, train(es)) {
					t.Fatalf("EasyScale on %d GPUs is not bitwise DDP-4 (drift %.3g)", gpus, drift(ref, es))
				}
			}

			var vfMax float64
			for _, world := range []int{1, 2} {
				vf := baseline(VirtualFlow, world)
				d := drift(ref, vf)
				t.Logf("VirtualFlow-%d  drift %.3g", world, d)
				if core.ParamsEqual(ref, vf) {
					t.Fatalf("VirtualFlow at world %d is bitwise DDP-4: the reduction order should differ", world)
				}
				if d > 1e-3 {
					t.Fatalf("VirtualFlow at world %d drifted %.3g, want ≤ 1e-3", world, d)
				}
				vfMax = max(vfMax, d)
			}
			for _, fw := range []Framework{TorchElastic, Pollux} {
				for _, world := range []int{1, 2, 8} {
					d := drift(ref, baseline(fw, world))
					t.Logf("%s-%d  drift %.3g", fw, world, d)
					if d < 100*vfMax {
						t.Fatalf("%s at world %d drifted %.3g, want ≥ 100× VirtualFlow's %.3g", fw, world, d, vfMax)
					}
				}
			}
		})
	}
}
