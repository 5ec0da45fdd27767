// Package elastic implements the baseline elastic-training frameworks the
// paper compares against (§2.2): a TorchElastic-like framework that keeps the
// per-GPU batch and linearly scales the learning rate with the world size,
// and a Pollux-like framework that co-adapts total batch size and learning
// rate. Both faithfully change the *training semantics* with the resource
// count — which is exactly why their accuracy is inconsistent across GPU
// counts (Figures 2–4) — and a Gandiva-style worker-packing executor used as
// the GPU-sharing baseline of Figure 10.
package elastic

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/rng"
	"repro/internal/tensor"
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

// BaselineJob trains a workload with physical-world DDP semantics: the data
// partition, per-GPU batch, and learning rate are functions of the current
// world size, per the framework's policy.
type BaselineJob struct {
	Cfg      BaselineConfig
	Workload *models.Workload

	world   int
	sampler *data.ElasticSampler
	loader  *data.Loader
	ddp     *comm.ElasticDDP
	opt     *optim.SGD
	sched   *optim.StepLR
	rngs    []*rng.Bundle // per-worker framework RNGs
	grads   [][]*tensor.Tensor
	devs    []*device.Device

	epoch, step, globalStep int
	lastLoss                float32
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

// NewBaselineJob builds a baseline run at the given initial world size, on
// V100 GPUs with deterministic kernels (seeds are fixed, as in Figure 2: the
// inconsistency under study is semantic, not kernel noise).
func NewBaselineJob(cfg BaselineConfig, workload string, world int) (*BaselineJob, error) {
	if world <= 0 || cfg.RefWorld <= 0 || cfg.BatchPerGPU <= 0 {
		return nil, fmt.Errorf("elastic: invalid geometry world=%d ref=%d batch=%d", world, cfg.RefWorld, cfg.BatchPerGPU)
	}
	w, err := models.Build(workload, cfg.Seed)
	if err != nil {
		return nil, err
	}
	b := &BaselineJob{Cfg: cfg, Workload: w, world: world}
	b.configureWorld(world)
	params := w.Params()
	sizes := make([]int, len(params))
	for i, p := range params {
		sizes[i] = p.Value.Size()
	}
	b.ddp = comm.NewElasticDDP(sizes, 1<<12)
	b.opt = optim.NewSGD(params, cfg.lr(world), cfg.Momentum, 0)
	if cfg.StepLRSize > 0 {
		b.sched = optim.NewStepLR(b.opt, cfg.StepLRSize, cfg.StepLRGamma)
	}
	return b, nil
}

// configureWorld builds the data pipeline and per-worker RNGs for a world
// size.
func (b *BaselineJob) configureWorld(world int) {
	b.world = world
	batch := b.Cfg.perGPUBatch(world)
	samplerWorld := world
	if b.Cfg.Framework == VirtualFlow {
		// virtual nodes preserve the reference data partition exactly
		samplerWorld = b.Cfg.RefWorld
		if world > b.Cfg.RefWorld || b.Cfg.RefWorld%world != 0 {
			panic("elastic: VirtualFlow requires world to divide RefWorld")
		}
	}
	b.sampler = data.NewElasticSampler(b.Workload.Dataset.Len(), samplerWorld, batch, b.Cfg.Seed)
	b.loader = data.NewLoader(b.Workload.Dataset, b.sampler, 2, b.Cfg.Seed)
	b.rngs = make([]*rng.Bundle, samplerWorld)
	for r := range b.rngs {
		b.rngs[r] = rng.NewBundle(b.Cfg.Seed ^ (uint64(r)+1)*0x9e3779b97f4a7c15)
	}
	params := b.Workload.Params()
	b.grads = make([][]*tensor.Tensor, world)
	for r := range b.grads {
		b.grads[r] = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			b.grads[r][i] = tensor.New(p.Value.Shape()...)
		}
	}
	dc := device.Config{DeterministicKernels: true, Selection: device.SelectHeuristic}
	b.devs = make([]*device.Device, world)
	for i := range b.devs {
		b.devs[i] = device.New(device.V100, dc)
	}
}

// Epoch returns the current epoch.
func (b *BaselineJob) Epoch() int { return b.epoch }

// LastLoss returns the mean loss of the last step.
func (b *BaselineJob) LastLoss() float32 { return b.lastLoss }

// RunStep executes one synchronous global step with the current semantics.
func (b *BaselineJob) RunStep() {
	if b.Cfg.Framework == VirtualFlow {
		b.runStepVirtualFlow()
		return
	}
	params := b.Workload.Params()
	var lossSum float32
	for r := 0; r < b.world; r++ {
		ctx := &nn.Context{Dev: b.devs[r], RNG: b.rngs[r].Torch, Training: true}
		x, labels := b.loader.Batch(b.step, r)
		b.opt.ZeroGrad()
		out := b.Workload.Net.Forward(ctx, x)
		lossSum += b.Workload.Loss.Forward(ctx, out, labels)
		b.Workload.Net.Backward(ctx, b.Workload.Loss.Backward(ctx))
		for i, p := range params {
			b.grads[r][i].CopyFrom(p.Grad)
		}
	}
	b.lastLoss = lossSum / float32(b.world)
	b.ddp.AllReduce(b.grads, b.world)
	for i, p := range params {
		p.Grad.CopyFrom(b.grads[0][i])
	}
	b.opt.Step()
	b.globalStep++
	b.step++
	if b.step >= b.sampler.StepsPerEpoch() {
		b.step = 0
		b.epoch++
		b.loader.SetEpoch(b.epoch)
		if b.sched != nil {
			b.sched.EpochStep()
		}
	}
}

// runStepVirtualFlow executes one global step with gradient accumulation:
// every physical worker runs its RefWorld/world virtual nodes sequentially,
// locally summing their gradients, then the ring spans the physical workers.
func (b *BaselineJob) runStepVirtualFlow() {
	params := b.Workload.Params()
	perWorker := b.Cfg.RefWorld / b.world
	var lossSum float32
	for w := 0; w < b.world; w++ {
		first := true
		for v := w * perWorker; v < (w+1)*perWorker; v++ {
			ctx := &nn.Context{Dev: b.devs[w], RNG: b.rngs[v].Torch, Training: true}
			x, labels := b.loader.Batch(b.step, v)
			b.opt.ZeroGrad()
			out := b.Workload.Net.Forward(ctx, x)
			lossSum += b.Workload.Loss.Forward(ctx, out, labels)
			b.Workload.Net.Backward(ctx, b.Workload.Loss.Backward(ctx))
			for i, p := range params {
				if first {
					b.grads[w][i].CopyFrom(p.Grad)
				} else {
					b.grads[w][i].AddInPlace(p.Grad)
				}
			}
			first = false
		}
	}
	b.lastLoss = lossSum / float32(b.Cfg.RefWorld)
	b.ddp.AllReduce(b.grads[:b.world], b.Cfg.RefWorld)
	for i, p := range params {
		p.Grad.CopyFrom(b.grads[0][i])
	}
	b.opt.Step()
	b.globalStep++
	b.step++
	if b.step >= b.sampler.StepsPerEpoch() {
		b.step = 0
		b.epoch++
		b.loader.SetEpoch(b.epoch)
		if b.sched != nil {
			b.sched.EpochStep()
		}
	}
}

// Evaluate runs the held-out set and returns overall and per-class accuracy.
func (b *BaselineJob) Evaluate() (overall float64, perClass []float64) {
	return EvaluateNet(b.Workload, b.devs[0], b.rngs[0].Torch)
}

// EvaluateNet computes held-out overall and per-class accuracy for a
// workload's current parameters.
func EvaluateNet(w *models.Workload, dev *device.Device, r *rng.Stream) (float64, []float64) {
	ctx := &nn.Context{Dev: dev, RNG: r, Training: false}
	ds := w.EvalDataset
	correct := make([]int, w.Classes)
	total := make([]int, w.Classes)
	const batch = 64
	for base := 0; base+batch <= ds.Len(); base += batch {
		idx := make([]int, batch)
		for i := range idx {
			idx[i] = base + i
		}
		x, labels := data.MaterializeBatch(ds, idx, nil)
		out := w.Net.Forward(ctx, x)
		var preds []int
		if out.Rank() == 2 && out.Dim(1) == w.Classes {
			preds = out.ArgMaxRow()
		} else {
			flat := out.Reshape(-1)
			preds = make([]int, flat.Size())
			for i, v := range flat.Data {
				if v > 0 {
					preds[i] = 1
				}
			}
		}
		for i, lbl := range labels {
			total[lbl]++
			if preds[i] == lbl {
				correct[lbl]++
			}
		}
	}
	perClass := make([]float64, w.Classes)
	allC, allT := 0, 0
	for c := 0; c < w.Classes; c++ {
		if total[c] > 0 {
			perClass[c] = float64(correct[c]) / float64(total[c])
		}
		allC += correct[c]
		allT += total[c]
	}
	if allT == 0 {
		return 0, perClass
	}
	return float64(allC) / float64(allT), perClass
}
