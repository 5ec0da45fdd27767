package core

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/device"
	"repro/internal/pool"
)

// The tests in this file are the paper's headline claims, asserted bitwise.
//
// "DDP" below is a Job with one EST per GPU on a fixed set of identical GPUs
// — with W physical == W virtual workers the execution is exactly PyTorch
// DDP's: one process per GPU, ring all-reduce across them. EasyScale runs
// are the same logical job attached to fewer or heterogeneous GPUs.

const consistencySteps = 12

func runSteps(t *testing.T, cfg Config, name string, p Placement, n int) *Job {
	t.Helper()
	j := mustJob(t, cfg, name, p)
	if err := j.RunSteps(n); err != nil {
		t.Fatal(err)
	}
	return j
}

// TestElasticBitwiseConsistencyHomogeneous: 4 ESTs on 4, 2, and 1 V100 GPUs
// produce bitwise identical parameters under D1 (Figure 9, stages 0–1).
func TestElasticBitwiseConsistencyHomogeneous(t *testing.T) {
	for _, name := range []string{"vgg19", "resnet50", "electra"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := testCfg(D1, false, 4)
			ddp := runSteps(t, cfg, name, EvenPlacement(4, device.V100, device.V100, device.V100, device.V100), consistencySteps)
			two := runSteps(t, cfg, name, EvenPlacement(4, device.V100, device.V100), consistencySteps)
			one := runSteps(t, cfg, name, EvenPlacement(4, device.V100), consistencySteps)
			if !ParamsEqual(ddp, two) {
				t.Fatal("4 ESTs on 2 GPUs diverged from DDP on 4 GPUs (D1 must be bitwise identical)")
			}
			if !ParamsEqual(ddp, one) {
				t.Fatal("4 ESTs on 1 GPU diverged from DDP on 4 GPUs (D1 must be bitwise identical)")
			}
			if ddp.ParamsHash() != two.ParamsHash() {
				t.Fatal("hash disagrees with equality")
			}
		})
	}
}

// TestHeterogeneousBitwiseConsistencyWithD2: under D1+D2 a heterogeneous
// placement (V100 + P100 + T4) matches DDP-heter bitwise (Figure 9 stage 2).
func TestHeterogeneousBitwiseConsistencyWithD2(t *testing.T) {
	cfg := testCfg(D1, true, 4)
	ddp := runSteps(t, cfg, "bert", EvenPlacement(4, device.V100, device.V100, device.V100, device.V100), consistencySteps)
	het := runSteps(t, cfg, "bert", EvenPlacement(4, device.V100, device.P100, device.T4), consistencySteps)
	if !ParamsEqual(ddp, het) {
		t.Fatal("D1+D2 on heterogeneous GPUs diverged from DDP (must be bitwise identical)")
	}
}

// TestHeterogeneousDivergesWithoutD2: with vendor (heuristic) kernels, the
// same heterogeneous placement diverges — the D2 problem.
func TestHeterogeneousDivergesWithoutD2(t *testing.T) {
	cfg := testCfg(D1, false, 4)
	homo := runSteps(t, cfg, "vgg19", EvenPlacement(4, device.V100), consistencySteps)
	het := runSteps(t, cfg, "vgg19", EvenPlacement(4, device.V100, device.P100), consistencySteps)
	if ParamsEqual(homo, het) {
		t.Fatal("heterogeneous GPUs with vendor kernels should diverge bitwise from homogeneous")
	}
}

// TestScaleInPreservesBitwiseConsistencyD1: train, scale 4→2→1 GPUs via
// on-demand checkpoints, and compare against an uninterrupted fixed-DoP run.
func TestScaleInPreservesBitwiseConsistencyD1(t *testing.T) {
	cfg := testCfg(D1, false, 4)
	ref := runSteps(t, cfg, "resnet50", EvenPlacement(4, device.V100, device.V100, device.V100, device.V100), 3*consistencySteps)

	elastic := mustJob(t, cfg, "resnet50", EvenPlacement(4, device.V100, device.V100, device.V100, device.V100))
	if err := elastic.RunSteps(consistencySteps); err != nil {
		t.Fatal(err)
	}
	if err := elastic.Scale(EvenPlacement(4, device.V100, device.V100)); err != nil {
		t.Fatal(err)
	}
	if err := elastic.RunSteps(consistencySteps); err != nil {
		t.Fatal(err)
	}
	if err := elastic.Scale(EvenPlacement(4, device.V100)); err != nil {
		t.Fatal(err)
	}
	if err := elastic.RunSteps(consistencySteps); err != nil {
		t.Fatal(err)
	}
	if !ParamsEqual(ref, elastic) {
		t.Fatal("D1 elastic run (4→2→1 GPUs) diverged from fixed 4-GPU DDP")
	}
	if elastic.GlobalStep() != ref.GlobalStep() {
		t.Fatal("progress mismatch")
	}
}

// TestScaleDivergesUnderD0: the same elastic schedule under D0 loses the
// gradient-bucket mapping at restart and diverges — the D0 curve of Figure 9.
func TestScaleDivergesUnderD0(t *testing.T) {
	cfg := testCfg(D0, false, 4)
	ref := runSteps(t, cfg, "resnet50", EvenPlacement(4, device.V100, device.V100, device.V100, device.V100), 2*consistencySteps)

	elastic := mustJob(t, cfg, "resnet50", EvenPlacement(4, device.V100, device.V100, device.V100, device.V100))
	if err := elastic.RunSteps(consistencySteps); err != nil {
		t.Fatal(err)
	}
	if err := elastic.Scale(EvenPlacement(4, device.V100, device.V100)); err != nil {
		t.Fatal(err)
	}
	if err := elastic.RunSteps(consistencySteps); err != nil {
		t.Fatal(err)
	}
	if ParamsEqual(ref, elastic) {
		t.Fatal("D0 elastic run should diverge after restart (bucket mapping lost)")
	}
}

// TestD0ReproducibleOnFixedResources: two identical D0 runs on the same
// fixed placement are bitwise identical (static determinism).
func TestD0ReproducibleOnFixedResources(t *testing.T) {
	cfg := testCfg(D0, false, 2)
	p := EvenPlacement(2, device.V100, device.V100)
	a := runSteps(t, cfg, "vgg19", p, consistencySteps)
	b := runSteps(t, cfg, "vgg19", p, consistencySteps)
	if !ParamsEqual(a, b) {
		t.Fatal("D0 runs with identical resources must be bitwise identical")
	}
}

// TestDetNoneNotReproducible: stock-framework behaviour (atomics, profiled
// kernel selection) differs run to run even on identical resources.
func TestDetNoneNotReproducible(t *testing.T) {
	cfg := testCfg(DetNone, false, 2)
	p := EvenPlacement(2, device.V100)
	hashes := map[uint64]bool{}
	for i := 0; i < 3; i++ {
		j := runSteps(t, cfg, "vgg19", p, 6)
		hashes[j.ParamsHash()] = true
	}
	if len(hashes) < 2 {
		t.Fatal("DetNone runs were bitwise identical 3 times; expected kernel non-determinism")
	}
}

// TestCheckpointRestoreBitwise: checkpoint mid-training, restore, continue —
// must match the uninterrupted run bitwise (D1), including mid-epoch state.
func TestCheckpointRestoreBitwise(t *testing.T) {
	cfg := testCfg(D1, false, 2)
	p := EvenPlacement(2, device.V100)
	ref := runSteps(t, cfg, "resnet50", p, 2*consistencySteps)

	j := runSteps(t, cfg, "resnet50", p, consistencySteps)
	ck := j.Checkpoint()
	restored, err := RestoreJob(cfg, ck)
	if err != nil {
		t.Fatal(err)
	}
	if restored.GlobalStep() != consistencySteps {
		t.Fatalf("restored progress %d", restored.GlobalStep())
	}
	if err := restored.Attach(p); err != nil {
		t.Fatal(err)
	}
	if err := restored.RunSteps(consistencySteps); err != nil {
		t.Fatal(err)
	}
	if !ParamsEqual(ref, restored) {
		t.Fatal("restored run diverged from uninterrupted run")
	}
}

// TestCheckpointAcrossEpochBoundary: scaling right at an epoch boundary must
// preserve the epoch permutation and scheduler state.
func TestCheckpointAcrossEpochBoundary(t *testing.T) {
	cfg := testCfg(D1, false, 4)
	cfg.BatchPerEST = 8 // 32 steps/epoch
	cfg.StepLRSize = 1
	cfg.StepLRGamma = 0.5
	spe := 32
	ref := runSteps(t, cfg, "electra", EvenPlacement(4, device.V100), spe+5)

	el := mustJob(t, cfg, "electra", EvenPlacement(4, device.V100))
	if err := el.RunSteps(spe - 1); err != nil {
		t.Fatal(err)
	}
	if err := el.Scale(EvenPlacement(4, device.V100, device.V100)); err != nil {
		t.Fatal(err)
	}
	if err := el.RunSteps(6); err != nil {
		t.Fatal(err)
	}
	if !ParamsEqual(ref, el) {
		t.Fatal("scale near epoch boundary diverged")
	}
	if el.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", el.Epoch())
	}
}

// TestRestoreRejectsMismatches covers the checkpoint identity guard.
func TestRestoreRejectsMismatches(t *testing.T) {
	cfg := testCfg(D1, false, 2)
	j := runSteps(t, cfg, "vgg19", EvenPlacement(2, device.V100), 2)
	ck := j.Checkpoint()

	bad := cfg
	bad.NumESTs = 4
	if _, err := RestoreJob(bad, ck); err == nil {
		t.Fatal("NumESTs mismatch must be rejected")
	}
	bad = cfg
	bad.Seed = 7
	if _, err := RestoreJob(bad, ck); err == nil {
		t.Fatal("seed mismatch must be rejected")
	}
	if _, err := RestoreJob(cfg, []byte("garbage data here")); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if _, err := RestoreJob(cfg, ck[:len(ck)/2]); err == nil {
		t.Fatal("truncated checkpoint must be rejected")
	}
}

// TestLossesIdenticalAcrossPlacements: not just final params — the per-EST
// loss sequence itself matches across placements under D1 (what Figure 9
// actually plots).
func TestLossesIdenticalAcrossPlacements(t *testing.T) {
	cfg := testCfg(D1, false, 4)
	a := mustJob(t, cfg, "vgg19", EvenPlacement(4, device.V100, device.V100, device.V100, device.V100))
	b := mustJob(t, cfg, "vgg19", EvenPlacement(4, device.V100))
	for s := 0; s < consistencySteps; s++ {
		if err := a.RunStep(); err != nil {
			t.Fatal(err)
		}
		if err := b.RunStep(); err != nil {
			t.Fatal(err)
		}
		la, lb := a.LastLosses(), b.LastLosses()
		for r := range la {
			if la[r] != lb[r] {
				t.Fatalf("step %d EST %d loss %v vs %v", s, r, la[r], lb[r])
			}
		}
	}
}

// TestExternalReduceMatchesRunStep drives global steps the way a distributed
// leader does — every worker's RunLocalPhase, each EST's buckets flattened,
// comm.ReduceAverage over virtual ranks, FinishStepReduced — and requires the
// job to be indistinguishable from one that called RunStep: parameters,
// losses, the rebuilt bucket plan and progress. The two paths share the
// reduce and the finish, so this pins the seam, not a second implementation.
func TestExternalReduceMatchesRunStep(t *testing.T) {
	const steps = 6
	p := EvenPlacement(4, device.V100, device.V100)
	for _, name := range []string{"resnet50", "bert"} {
		t.Run(name, func(t *testing.T) {
			cfg := testCfg(D1, false, 4)
			want := runSteps(t, cfg, name, p, steps)

			got := mustJob(t, cfg, name, p)
			ddp := got.DDP()
			contribs := make([][]float32, cfg.NumESTs)
			for s := 0; s < steps; s++ {
				for wi := range p.Devices {
					if err := got.RunLocalPhase(wi); err != nil {
						t.Fatal(err)
					}
				}
				reduced := make([][]float32, ddp.NumBuckets())
				for b := range reduced {
					for r := range contribs {
						contribs[r] = ddp.FlattenBucket(b, got.ESTGradientSet(r))
					}
					reduced[b] = comm.ReduceAverage(contribs, cfg.NumESTs)
					for _, buf := range contribs {
						pool.Put(buf)
					}
				}
				if err := got.FinishStepReduced(reduced); err != nil {
					t.Fatal(err)
				}
				for _, buf := range reduced {
					pool.Put(buf)
				}
			}

			if got.ParamsHash() != want.ParamsHash() || !ParamsEqual(got, want) {
				t.Fatal("externally reduced steps diverged from RunStep")
			}
			if lossBits(got) != lossBits(want) {
				t.Fatalf("losses differ: %s vs %s", lossBits(got), lossBits(want))
			}
			if !got.DDP().Plan().Equal(want.DDP().Plan()) || !got.DDP().Rebuilt() {
				t.Fatal("bucket plans differ after the first-iteration rebuild")
			}
			if got.GlobalStep() != want.GlobalStep() || got.step != want.step || got.Epoch() != want.Epoch() {
				t.Fatalf("progress differs: %d/%d/%d vs %d/%d/%d", got.GlobalStep(), got.step, got.Epoch(),
					want.GlobalStep(), want.step, want.Epoch())
			}
		})
	}
}
