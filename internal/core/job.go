package core

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/pool"
	"repro/internal/tensor"
)

// Job is one EasyScale training job: a workload, its fixed set of ESTs, and
// whatever physical GPUs it is currently attached to.
type Job struct {
	Cfg      Config
	Workload *models.Workload

	sampler *data.ElasticSampler
	loader  *data.Loader
	ddp     *comm.ElasticDDP
	opt     *optim.SGD
	sched   optim.LRScheduler
	ests    []*ESTContext
	ids     groupIDs // shard group identifiers, see ckpt.go

	// grads[i] is parameter i's gradient tensor on replica 0 — what the
	// optimizer reads, and where a step's averaged buckets land.
	grads []*tensor.Tensor

	// replicas[i] is what GPU i of a placement computes on; replicas[0]
	// wraps Workload and always exists, the rest grow on demand and live as
	// long as the job (see replica.go).
	replicas []*replica

	// live physical attachment
	placement Placement
	devices   []*device.Device
	allocMB   []float64
	attached  bool

	// progress
	epoch, step int // step = next global step within epoch
	globalStep  int // total completed global steps across the job lifetime

	lastLosses []float32
	// estTimes records the simulated duration of each EST's last local
	// step, indexed by virtual rank (Figure 13 instrumentation).
	estTimes []time.Duration

	// stepScratch holds pooled buffers that must survive until the global
	// step completes (D0 per-worker gradient accumulations); the per-EST
	// scratch lives in each replica. Buffer reuse never changes accumulation
	// order, so pooling is invisible to the consistency hashes.
	stepScratch *pool.Scope

	// obs is the attached execution-tracer state (nil = tracing off; every
	// instrumentation helper is then a single pointer test). See trace.go.
	obs *jobObs
}

// NewJob builds a job for the named workload. The model, data order, and all
// RNG streams derive deterministically from cfg.Seed.
func NewJob(cfg Config, workloadName string) (*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w, err := models.Build(workloadName, cfg.Seed)
	if err != nil {
		return nil, err
	}
	j := &Job{Cfg: cfg, Workload: w}
	j.sampler = data.NewElasticSampler(w.Dataset.Len(), cfg.NumESTs, cfg.BatchPerEST, cfg.Seed)
	j.loader = data.NewLoader(w.Dataset, j.sampler, cfg.DataWorkersPerEST, cfg.Seed)

	j.replicas = []*replica{newReplica(w.Net, w.Loss)}
	params := j.replicas[0].params
	sizes := make([]int, len(params))
	j.grads = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		sizes[i] = p.Value.Size()
		j.grads[i] = p.Grad
	}
	j.ddp = comm.NewElasticDDP(sizes, cfg.BucketCapElems)
	j.opt = optim.NewSGD(params, cfg.LR, cfg.Momentum, cfg.WeightDecay)
	if cfg.StepLRSize > 0 {
		j.sched = optim.NewStepLR(j.opt, cfg.StepLRSize, cfg.StepLRGamma)
	}

	j.ests = make([]*ESTContext, cfg.NumESTs)
	for r := 0; r < cfg.NumESTs; r++ {
		j.ests[r] = newESTContext(cfg.Seed, r, j.replicas[0].state)
	}
	j.ids = newGroupIDs(len(params), len(j.opt.StateTensors()), cfg.NumESTs)
	j.lastLosses = make([]float32, cfg.NumESTs)
	j.estTimes = make([]time.Duration, cfg.NumESTs)
	j.stepScratch = pool.NewScope()
	return j, nil
}

// Placement returns the current physical placement (zero value if detached).
func (j *Job) Placement() Placement { return j.placement }

// Attached reports whether the job currently holds GPUs.
func (j *Job) Attached() bool { return j.attached }

// Epoch returns the current epoch.
func (j *Job) Epoch() int { return j.epoch }

// GlobalStep returns the number of completed global steps.
func (j *Job) GlobalStep() int { return j.globalStep }

// LastLosses returns the per-EST losses of the last completed global step,
// indexed by virtual rank.
func (j *Job) LastLosses() []float32 { return j.lastLosses }

// Devices returns the attached simulated devices.
func (j *Job) Devices() []*device.Device { return j.devices }

// perDeviceMB computes the EasyScale worker footprint on one GPU: one CUDA
// context, one parameter/optimizer replica, one EST's activations (ESTs are
// time-sliced, so activations never coexist), plus the tiny EST contexts.
// Gradient swap buffers live in host memory.
func (j *Job) perDeviceMB(dev *device.Device, numESTs int) float64 {
	m := j.Workload.Memory()
	ctxMB := 0.0
	for _, st := range j.ests[0].ModelState {
		ctxMB += float64(st.Size()) * 4 / 1e6
	}
	return float64(dev.Spec.ContextMB) +
		m.ParamsMB + m.OptimMB +
		m.ActivationMBPerSample*float64(j.Cfg.BatchPerEST) +
		ctxMB*float64(numESTs)
}

// Attach binds the job to fresh simulated GPUs of the placement's types.
func (j *Job) Attach(p Placement) error { return j.AttachDevices(p, j.newDevices(p)) }

// newDevices builds one simulated GPU per placement slot at the job's
// determinism configuration.
func (j *Job) newDevices(p Placement) []*device.Device {
	dc := j.Cfg.DeviceConfig()
	devs := make([]*device.Device, len(p.Devices))
	for i, t := range p.Devices {
		devs[i] = device.New(t, dc)
	}
	return devs
}

// AttachDevices binds the job to caller-provided devices (used by experiments
// that need to inspect or share device state) after memory admission.
func (j *Job) AttachDevices(p Placement, devs []*device.Device) error {
	if j.attached {
		return fmt.Errorf("core: job already attached")
	}
	allocMB, err := j.admit(p, devs)
	if err != nil {
		return err
	}
	j.bind(p, devs, allocMB)
	return nil
}

// admit is the one admission path: it validates the placement and reserves
// each GPU's footprint on devs, touching no job state. On OOM every prior
// reservation is rolled back and the error is returned. Each slot needs a
// device of its own: the slots compute concurrently, each charging its
// device's clock.
func (j *Job) admit(p Placement, devs []*device.Device) ([]float64, error) {
	if err := p.Validate(j.Cfg.NumESTs); err != nil {
		return nil, err
	}
	if len(devs) != len(p.Devices) {
		return nil, fmt.Errorf("core: %d devices for %d slots", len(devs), len(p.Devices))
	}
	for i, d := range devs {
		for k := 0; k < i; k++ {
			if devs[k] == d {
				return nil, fmt.Errorf("core: device given for both slot %d and slot %d", k, i)
			}
		}
	}
	allocMB := make([]float64, len(devs))
	for i, d := range devs {
		need := j.perDeviceMB(d, len(p.Assignment[i]))
		if err := d.Alloc(need); err != nil {
			for k := 0; k < i; k++ {
				devs[k].Free(allocMB[k])
			}
			return nil, err
		}
		allocMB[i] = need
	}
	return allocMB, nil
}

// bind makes an admitted placement the job's live attachment.
func (j *Job) bind(p Placement, devs []*device.Device, allocMB []float64) {
	scale := j.Workload.SimTimeScale()
	for _, d := range devs {
		d.SetFLOPsScale(scale)
	}
	j.placement = p
	j.devices = append([]*device.Device(nil), devs...)
	j.allocMB = allocMB
	j.attached = true
	j.obs.decision("core.attach", placementDetail(p), int64(len(p.Devices)), int64(j.Cfg.NumESTs))
}

// Detach releases the GPUs (the job state remains resumable).
func (j *Job) Detach() {
	if !j.attached {
		return
	}
	j.obs.decision("core.detach", "", int64(len(j.devices)), int64(j.globalStep))
	for i, d := range j.devices {
		d.Free(j.allocMB[i])
	}
	j.devices, j.allocMB = nil, nil
	j.placement = Placement{}
	j.attached = false
}

// gradBytes returns the total gradient size in bytes (simulated scale).
func (j *Job) gradBytes() float64 { return j.Workload.Memory().ParamsMB * 1e6 }

// localStep executes one EST's mini-batch on its device, in the buffers of
// that device's replica, and swaps the gradients out. It writes nothing
// outside rep, dev, est and the job's rank-indexed slots, so local steps of
// different GPUs may run concurrently.
func (j *Job) localStep(rep *replica, est *ESTContext, dev *device.Device, lastOnWorker bool, soloOnWorker bool) {
	o := j.obs
	ctx := &rep.ctx
	ctx.Dev, ctx.RNG = dev, est.RNG.Torch
	stepStart := dev.Now()
	tLocal := o.now()

	// context switch in: implicit model state of this EST's replica
	modelState := rep.state
	if !j.Cfg.DisableContextSwitch {
		tSw := o.now()
		est.switchIn(modelState)
		dev.ChargeTime(CtxSwitchCost)
		o.estSpan(est.VirtualRank, obs.CatSwitch, "core.switch-in", tSw, int64(CtxSwitchCost), 0)
		o.countSwitch()
	}

	x, labels := j.loader.Batch(j.step, est.VirtualRank)

	for _, p := range rep.params {
		p.ZeroGrad()
	}
	before := dev.Now()
	tComp := o.now()
	dev.ChargeTime(KernelLaunchOverhead)
	out := rep.net.Forward(ctx, x)
	loss := rep.loss.Forward(ctx, out, labels)
	nn.BackwardParams(rep.net, ctx, rep.loss.Backward(ctx)) // the input gradient is discarded
	computeDur := dev.Now() - before
	o.estSpan(est.VirtualRank, obs.CatStep, "core.compute", tComp, int64(computeDur), int64(j.step))
	j.lastLosses[est.VirtualRank] = loss

	// gradient swap to host: skipped entirely when the EST is alone on its
	// GPU (no sharing, grads stay in place); otherwise overlapped with the
	// surrounding compute, and the tail EST additionally cannot hide its
	// copy behind a successor's forward pass.
	if !soloOnWorker {
		copyDur := time.Duration(j.gradBytes() / (PCIeGBps * 1e9) * float64(time.Second))
		overlap := CopyOverlap
		if lastOnWorker {
			overlap = CopyOverlap / 2
		}
		hidden := time.Duration(float64(computeDur) * overlap)
		if copyDur > hidden {
			dev.ChargeTime(copyDur - hidden)
		}
	}
	if est.Gradients == nil {
		est.Gradients = make([]*tensor.Tensor, len(rep.params))
		for i, p := range rep.params {
			est.Gradients[i] = tensor.New(p.Grad.Shape()...)
		}
	}
	for i, p := range rep.params {
		est.Gradients[i].CopyFrom(p.Grad)
	}

	// context switch out
	if !j.Cfg.DisableContextSwitch {
		tSw := o.now()
		est.switchOut(modelState)
		o.estSpan(est.VirtualRank, obs.CatSwitch, "core.switch-out", tSw, 0, 0)
		o.countSwitch()
	}
	j.estTimes[est.VirtualRank] = dev.Now() - stepStart

	// Every activation and gradient buffer borrowed during this local step is
	// dead now (gradients were copied to the EST's host buffers above).
	ctx.Scratch.ReleaseAll()
	// A0 carries the simulated (device-clock) duration so the trace shows
	// both wall and simulated time per EST local step (Fig. 11).
	o.estSpan(est.VirtualRank, obs.CatStep, "core.local-step", tLocal,
		int64(j.estTimes[est.VirtualRank]), int64(est.VirtualRank))
}

// layerParamCounts groups parameters by forward layer for the bucket-rebuild
// ready order.
func (j *Job) layerParamCounts() []int {
	if seq, ok := j.Workload.Net.(*nn.Sequential); ok {
		out := make([]int, len(seq.Layers))
		for i, l := range seq.Layers {
			out[i] = len(l.Params())
		}
		return out
	}
	return []int{len(j.Workload.Params())}
}

// RunLocalPhase executes the local steps of the ESTs hosted by placement
// worker workerIdx for the current global step, on replica 0 and on the
// calling goroutine. It is what a distributed worker calls for its own index
// before synchronizing through the networked ring; the single-process engine
// (RunStep) runs every worker of the placement, each on its own replica.
func (j *Job) RunLocalPhase(workerIdx int) error {
	if !j.attached {
		return fmt.Errorf("core: job is not attached to GPUs")
	}
	if workerIdx < 0 || workerIdx >= len(j.placement.Assignment) {
		return fmt.Errorf("core: worker index %d out of placement", workerIdx)
	}
	j.localPhase(workerIdx, j.replicas[0])
	return nil
}

// localPhase time-slices worker wi's ESTs through rep in hosting order.
func (j *Job) localPhase(wi int, rep *replica) {
	ranks := j.placement.Assignment[wi]
	dev := j.devices[wi]
	for li, r := range ranks {
		j.localStep(rep, j.ests[r], dev, li == len(ranks)-1, len(ranks) == 1)
	}
}

// ESTGradientSet returns the gradient tensors EST rank produced in its last
// local step (host-side buffers, per parameter in registration order).
func (j *Job) ESTGradientSet(rank int) []*tensor.Tensor { return j.ests[rank].Gradients }

// DDP exposes the communicator for bucket introspection by the distributed
// runtime.
func (j *Job) DDP() *comm.ElasticDDP { return j.ddp }

// chargeSync advances every attached device by the ring all-reduce time.
func (j *Job) chargeSync() {
	p := float64(len(j.devices))
	if p <= 1 {
		return // all ESTs share one memory space: no cross-device traffic
	}
	syncDur := time.Duration(j.gradBytes() * 2 * (p - 1) / p / (AllReduceGBps * 1e9) * float64(time.Second))
	for _, d := range j.devices {
		d.ChargeTime(syncDur)
	}
}

// maybeRebuild performs DDP's first-iteration bucket reconstruction
// (disabled after a D1 restore). The ready order is a pure function of the
// rebuild step at every level — which is why identical runs agree but a
// restarted run rebuilds differently.
func (j *Job) maybeRebuild() {
	if j.ddp.Rebuilt() || !j.ddp.RebuildEnabled {
		return
	}
	groups := comm.BackwardGroups(j.layerParamCounts())
	j.ddp.MaybeRebuild(comm.ObservedReadyOrderSeeded(groups, uint64(j.globalStep)+j.Cfg.Seed))
}

// advance applies the reduced gradients held in the parameters' Grad buffers
// and moves the job to the next global step.
func (j *Job) advance() {
	j.opt.Step()
	j.obs.countStep()
	j.globalStep++
	j.step++
	if j.step >= j.sampler.StepsPerEpoch() {
		j.step = 0
		j.epoch++
		j.loader.SetEpoch(j.epoch)
		if j.sched != nil {
			j.sched.EpochStep()
		}
	}
}

// finishStep is the one end of a global step: buckets holds the averaged
// bucket buffers in plan order, wherever they were reduced. They are
// scattered into the shared parameters' gradients, the ring time is charged,
// DDP's first-iteration rebuild runs, and the optimizer moves the job on.
func (j *Job) finishStep(buckets [][]float32) {
	for b, buf := range buckets {
		j.ddp.UnflattenBucket(b, j.grads, buf)
	}
	j.chargeSync()
	j.maybeRebuild()
	j.advance()
}

// FinishStepReduced completes a global step whose gradient synchronization
// happened externally (the distributed ring): buckets holds the averaged
// bucket buffers in plan order.
func (j *Job) FinishStepReduced(buckets [][]float32) error {
	if !j.attached {
		return fmt.Errorf("core: job is not attached to GPUs")
	}
	if len(buckets) != j.ddp.NumBuckets() {
		return fmt.Errorf("core: %d reduced buckets for %d-bucket plan", len(buckets), j.ddp.NumBuckets())
	}
	for b, buf := range buckets {
		if len(buf) != j.ddp.BucketLen(b) {
			return fmt.Errorf("core: bucket %d length %d, want %d", b, len(buf), j.ddp.BucketLen(b))
		}
	}
	o := j.obs
	t0 := o.now()
	stepIdx := int64(j.globalStep)
	j.finishStep(buckets)
	o.runSpan(obs.CatStep, "core.finish-step", t0, stepIdx, int64(len(buckets)))
	return nil
}

// RunStep executes one global data-parallel step: the GPUs of the placement
// run concurrently, each time-slicing its ESTs' local steps on its own
// replica; after they join, gradients are averaged bucket by bucket through
// ElasticDDP and the shared parameters are updated once.
func (j *Job) RunStep() error {
	if !j.attached {
		return fmt.Errorf("core: job is not attached to GPUs")
	}
	o := j.obs
	t0 := o.now()
	stepIdx := int64(j.globalStep)

	if err := j.runLocalPhases(); err != nil {
		return err
	}

	// gradient synchronization
	var sets [][]*tensor.Tensor
	if j.Cfg.Level >= D1 {
		// constant virtual communication ranks: the ring is always the
		// logical world, regardless of physical placement
		sets = make([][]*tensor.Tensor, j.Cfg.NumESTs)
		for r, est := range j.ests {
			sets[r] = est.Gradients
		}
	} else {
		// physical topology: each worker locally accumulates its ESTs'
		// gradients in hosting order, then the ring spans the workers
		sets = make([][]*tensor.Tensor, len(j.placement.Assignment))
		for wi, ranks := range j.placement.Assignment {
			acc := make([]*tensor.Tensor, len(j.grads))
			for pi := range acc {
				acc[pi] = j.ests[ranks[0]].Gradients[pi].CloneScoped(j.stepScratch)
				for _, r := range ranks[1:] {
					acc[pi].AddInPlace(j.ests[r].Gradients[pi])
				}
			}
			sets[wi] = acc
		}
	}
	buckets := j.ddp.ReduceBuckets(sets, j.Cfg.NumESTs)
	j.stepScratch.ReleaseAll()
	j.finishStep(buckets)
	for _, buf := range buckets {
		pool.Put(buf)
	}
	o.runSpan(obs.CatStep, "core.global-step", t0, stepIdx, int64(j.Cfg.NumESTs))
	return nil
}

// RunSteps executes n global steps.
func (j *Job) RunSteps(n int) error {
	for i := 0; i < n; i++ {
		if err := j.RunStep(); err != nil {
			return err
		}
	}
	return nil
}

// ParamsHash fingerprints all model parameters (bitwise).
func (j *Job) ParamsHash() uint64 {
	var h uint64 = 14695981039346656037
	for _, p := range j.Workload.Params() {
		h ^= p.Value.Hash64()
		h *= 1099511628211
	}
	return h
}

// ParamsEqual reports bitwise equality of two jobs' parameters.
func ParamsEqual(a, b *Job) bool {
	pa, pb := a.Workload.Params(), b.Workload.Params()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if !pa[i].Value.Equal(pb[i].Value) {
			return false
		}
	}
	return true
}

// EvalResult is a validation pass outcome.
type EvalResult struct {
	Overall  float64
	PerClass []float64
}

// Evaluate runs the held-out set through the rank-0 replica (the model DDP
// would save) in eval mode and returns overall and per-class accuracy.
func (j *Job) Evaluate() EvalResult {
	dev := j.devices
	var d *device.Device
	if j.attached {
		d = dev[0]
	} else {
		d = device.New(device.V100, j.Cfg.DeviceConfig())
	}
	modelState := j.Workload.StateTensors()
	// evaluation must not disturb training state
	saved := make([]*tensor.Tensor, len(modelState))
	for i, st := range modelState {
		saved[i] = st.Clone()
	}
	j.ests[0].switchIn(modelState)
	defer func() {
		for i, st := range modelState {
			st.CopyFrom(saved[i])
		}
	}()

	ctx := &nn.Context{Dev: d, RNG: j.ests[0].RNG.Torch, Training: false}
	ds := j.Workload.EvalDataset
	classes := j.Workload.Classes
	correct := make([]int, classes)
	total := make([]int, classes)
	const batch = 64
	for base := 0; base+batch <= ds.Len(); base += batch {
		idx := make([]int, batch)
		for i := range idx {
			idx[i] = base + i
		}
		x, labels := data.MaterializeBatch(ds, idx, nil)
		out := j.Workload.Net.Forward(ctx, x)
		var preds []int
		if out.Rank() == 2 && out.Dim(1) == classes {
			preds = out.ArgMaxRow()
		} else {
			// binary logits ([B,1])
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
	res := EvalResult{PerClass: make([]float64, classes)}
	allCorrect, allTotal := 0, 0
	for c := 0; c < classes; c++ {
		if total[c] > 0 {
			res.PerClass[c] = float64(correct[c]) / float64(total[c])
		}
		allCorrect += correct[c]
		allTotal += total[c]
	}
	if allTotal > 0 {
		res.Overall = float64(allCorrect) / float64(allTotal)
	}
	return res
}
