// Package elastic holds the baseline elastic-training frameworks the paper
// compares against (§2.2) as policies over core.Job: a TorchElastic-like
// framework that keeps the per-GPU batch and linearly scales the learning
// rate with the world size, a Pollux-like framework that co-adapts total
// batch size and learning rate, and VirtualFlow-style gradient accumulation.
// The first two change the *training semantics* with the resource count —
// which is exactly why their accuracy is inconsistent across GPU counts
// (Figures 2–4). The trainer itself is EasyScale's, so every baseline is
// compared with the DDP reference EasyScale is proven bitwise equal to. The
// package also models Gandiva-style worker packing, the GPU-sharing baseline
// of Figure 10.
package elastic

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/device"
)

// Framework selects the baseline's hyper-parameter adaptation policy.
type Framework int

const (
	// FixedDDP is the non-elastic reference: whatever world size it is
	// given defines the semantics, no adaptation.
	FixedDDP Framework = iota
	// TorchElastic keeps the user's per-GPU batch size and applies the
	// linear LR scaling rule as the world changes.
	TorchElastic
	// Pollux co-adapts the total batch size (square-root growth in the
	// world size) and the learning rate (AdaScale-style square-root gain).
	Pollux
	// VirtualFlow keeps the reference semantics via gradient accumulation:
	// each physical worker sequentially executes RefWorld/world virtual
	// nodes and locally accumulates their gradients before the ring. Batch
	// sizes and data partition match the reference exactly — but the
	// floating-point reduction order does not, which is the residual
	// accuracy drift the paper cites (~0.4% on ResNet50).
	VirtualFlow
)

// String names the framework.
func (f Framework) String() string {
	switch f {
	case FixedDDP:
		return "DDP"
	case TorchElastic:
		return "TorchElastic"
	case Pollux:
		return "Pollux"
	case VirtualFlow:
		return "VirtualFlow"
	}
	return fmt.Sprintf("Framework(%d)", int(f))
}

// BaselineConfig configures a baseline training run.
type BaselineConfig struct {
	Framework Framework
	Seed      uint64
	// RefWorld and BatchPerGPU define the user's intended semantics (the
	// configuration the DDP reference runs).
	RefWorld    int
	BatchPerGPU int
	BaseLR      float64
	Momentum    float64
	// StepLRSize/Gamma configure the epoch LR schedule (the gamma of Fig 4).
	StepLRSize  int
	StepLRGamma float64
}

// perGPUBatch returns the framework's per-GPU batch at the given world size.
func (c BaselineConfig) perGPUBatch(world int) int {
	switch c.Framework {
	case Pollux:
		// total batch grows like sqrt(world/refWorld) relative to the
		// reference total
		total := float64(c.BatchPerGPU*c.RefWorld) * math.Sqrt(float64(world)/float64(c.RefWorld))
		b := int(math.Round(total / float64(world)))
		if b < 1 {
			b = 1
		}
		return b
	default:
		return c.BatchPerGPU
	}
}

// lr returns the framework's learning rate at the given world size.
func (c BaselineConfig) lr(world int) float64 {
	switch c.Framework {
	case TorchElastic:
		// linear scaling rule (Goyal et al.)
		return c.BaseLR * float64(world) / float64(c.RefWorld)
	case Pollux:
		// AdaScale-style square-root gain with the total batch
		total := float64(c.perGPUBatch(world) * world)
		ref := float64(c.BatchPerGPU * c.RefWorld)
		return c.BaseLR * math.Sqrt(total/ref)
	default:
		return c.BaseLR
	}
}

// NewBaselineJob builds a baseline run at the given world size: a core.Job at
// static determinism (fixed seeds and deterministic kernels, as in Figure 2 —
// the inconsistency under study is semantic, not kernel noise) attached to
// `world` V100s, its geometry and learning rate set by the framework's policy.
// DDP, TorchElastic and Pollux run one EST per GPU, so data partition, batch
// and ring all follow the world. VirtualFlow keeps RefWorld ESTs: below D1 a
// GPU accumulates its ESTs' gradients in hosting order before the ring spans
// the physical workers, which is gradient accumulation over virtual nodes.
func NewBaselineJob(cfg BaselineConfig, workload string, world int) (*core.Job, error) {
	if world <= 0 || cfg.RefWorld <= 0 || cfg.BatchPerGPU <= 0 {
		return nil, fmt.Errorf("elastic: invalid geometry world=%d ref=%d batch=%d", world, cfg.RefWorld, cfg.BatchPerGPU)
	}
	ests := world
	if cfg.Framework == VirtualFlow {
		// virtual nodes preserve the reference data partition exactly
		if cfg.RefWorld%world != 0 {
			return nil, fmt.Errorf("elastic: VirtualFlow requires world %d to divide RefWorld %d", world, cfg.RefWorld)
		}
		ests = cfg.RefWorld
	}
	// untuned fields as everywhere else, so DDP here is Figure 9's DDP
	cc := core.DefaultConfig(ests)
	cc.Level, cc.D2 = core.D0, false
	cc.Seed = cfg.Seed
	cc.BatchPerEST = cfg.perGPUBatch(world)
	cc.LR = cfg.lr(world)
	cc.Momentum = cfg.Momentum
	cc.StepLRSize, cc.StepLRGamma = cfg.StepLRSize, cfg.StepLRGamma
	j, err := core.NewJob(cc, workload)
	if err != nil {
		return nil, err
	}
	gpus := make([]device.Type, world)
	for i := range gpus {
		gpus[i] = device.V100
	}
	if err := j.Attach(core.EvenPlacement(ests, gpus...)); err != nil {
		return nil, err
	}
	return j, nil
}
