// Package core implements EasyScale's primary contribution: the
// EasyScaleThread (EST) abstraction that decouples the distributed training
// procedure from physical GPU allocation, with bitwise accuracy-consistency
// under resource elasticity and heterogeneity.
//
// A training job is configured with a fixed number of logical workers
// (ESTs). Any placement of those ESTs onto physical simulated GPUs — four
// GPUs, one GPU, or a heterogeneous mix — executes the ESTs in a time-slicing
// manner at mini-batch granularity, swaps only the determinism-critical EST
// context at switches, synchronizes gradients through ElasticDDP over virtual
// communication ranks, and checkpoints on demand when the resource allocation
// changes. Under determinism level D1 (homogeneous GPUs) or D1+D2 (any GPUs),
// the resulting model parameters are bitwise identical to PyTorch-style DDP
// on a fixed number of GPUs.
package core

import (
	"fmt"
	"time"

	"repro/internal/device"
)

// Determinism is the base determinism level of §3.3.
type Determinism int

const (
	// DetNone is stock-framework behaviour: atomics-based kernels,
	// profiling-based kernel selection, unrecorded RNG/bucket state.
	DetNone Determinism = iota
	// D0 (static determinism): fixed seeds, deterministic kernels, RNG
	// states recorded — identical runs on a fixed number of GPUs.
	D0
	// D1 (elastic determinism): D0 plus constant virtual communication
	// ranks and checkpointed gradient-bucket mapping — identical runs
	// across different numbers of homogeneous GPUs.
	D1
)

// String names the level.
func (d Determinism) String() string {
	switch d {
	case DetNone:
		return "none"
	case D0:
		return "D0"
	case D1:
		return "D1"
	}
	return fmt.Sprintf("Determinism(%d)", int(d))
}

// Config configures an EasyScale training job.
type Config struct {
	// Level is the base determinism level; D2 adds heterogeneous
	// determinism (hardware-agnostic kernels) on top of it.
	Level Determinism
	D2    bool
	// D2Kernel optionally replaces the built-in hardware-agnostic kernel
	// with a user-tuned one (the paper's future-work Cutlass path). It
	// participates in checkpoint identity: the kernel defines the numerics.
	D2Kernel *device.CustomKernel

	// Seed is the job's master seed: model init, data order, and all
	// framework RNGs derive from it.
	Seed uint64

	// NumESTs is maxP, the fixed number of logical training workers. The
	// user tunes hyper-parameters against this number exactly as they
	// would against a fixed GPU count.
	NumESTs int
	// BatchPerEST is the per-logical-worker mini-batch size.
	BatchPerEST int
	// DataWorkersPerEST is the user's data-worker count per logical
	// worker (shared physically across ESTs, per §3.2).
	DataWorkersPerEST int

	// BucketCapElems is the gradient bucket capacity in elements
	// (bucket_cap_mb analog).
	BucketCapElems int

	// Optimizer hyper-parameters (SGD with momentum, StepLR schedule).
	LR          float64
	Momentum    float64
	WeightDecay float64
	// StepLRSize/StepLRGamma configure the per-epoch StepLR decay; a zero
	// StepLRSize disables the scheduler.
	StepLRSize  int
	StepLRGamma float64

	// DisableContextSwitch turns off EST context save/restore — the
	// ablation of Figure 11: ESTs on the same GPU then share that GPU's
	// implicit-state buffers instead of each carrying its own. Training is
	// then NOT accuracy-consistent; it exists only to measure the switching
	// overhead.
	DisableContextSwitch bool

	// DistTimeout bounds every blocking network operation of the
	// distributed runtime (dial, accept, frame read/write), so a hung peer
	// surfaces as a deadline error instead of wedging a generation. Zero
	// falls back to the dist package's default. It does not participate in
	// checkpoint identity: timeouts never affect numerics.
	DistTimeout time.Duration
}

// DefaultConfig returns a D1+D2 EasyScale configuration with the common
// hyper-parameters used across the experiments.
func DefaultConfig(numESTs int) Config {
	return Config{
		Level: D1, D2: true,
		Seed:              42,
		NumESTs:           numESTs,
		BatchPerEST:       8,
		DataWorkersPerEST: 2,
		BucketCapElems:    1 << 12,
		LR:                0.05,
		Momentum:          0.9,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumESTs <= 0 {
		return fmt.Errorf("core: NumESTs must be positive, got %d", c.NumESTs)
	}
	if c.BatchPerEST <= 0 {
		return fmt.Errorf("core: BatchPerEST must be positive, got %d", c.BatchPerEST)
	}
	if c.DataWorkersPerEST <= 0 {
		return fmt.Errorf("core: DataWorkersPerEST must be positive, got %d", c.DataWorkersPerEST)
	}
	if c.BucketCapElems <= 0 {
		return fmt.Errorf("core: BucketCapElems must be positive, got %d", c.BucketCapElems)
	}
	if c.Level < DetNone || c.Level > D1 {
		return fmt.Errorf("core: invalid determinism level %d", c.Level)
	}
	if c.D2Kernel != nil {
		if !c.D2 {
			return fmt.Errorf("core: D2Kernel set without D2")
		}
		if err := c.D2Kernel.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// d2Block returns the accumulation block defining this config's D2 numerics.
func (c Config) d2Block() int {
	if c.D2Kernel != nil {
		return c.D2Kernel.Block
	}
	return device.AgnosticBlock
}

// DeviceConfig derives the simulated-device configuration that realizes the
// determinism level.
func (c Config) DeviceConfig() device.Config {
	dc := device.Config{}
	switch c.Level {
	case DetNone:
		dc.DeterministicKernels = false
		dc.Selection = device.SelectProfiled
	default: // D0, D1
		dc.DeterministicKernels = true
		dc.Selection = device.SelectHeuristic
	}
	if c.D2 {
		dc.Selection = device.SelectFixedAlgo
		dc.Custom = c.D2Kernel
	}
	return dc
}

// Timing constants of the execution model (per §3.2 and Figures 11/13): the
// fixed cost of an EST context switch, PCIe bandwidth for gradient D2H
// copies, the fraction of a copy hidden under compute overlap, and the
// interconnect bandwidth for all-reduce.
const (
	CtxSwitchCost = 40 * time.Microsecond
	// KernelLaunchOverhead floors each mini-batch's compute time: real
	// training steps launch hundreds of kernels whose dispatch cost does
	// not shrink with model size.
	KernelLaunchOverhead = 2 * time.Millisecond
	PCIeGBps             = 12.0
	CopyOverlap          = 0.95
	AllReduceGBps        = 10.0
)
