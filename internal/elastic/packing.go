package elastic

import (
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/models"
)

// Worker packing (Gandiva) multiplexes k full DDP worker processes on one
// GPU. Every process carries its own CUDA context, parameter/optimizer
// replica, and activation working set, so GPU memory grows linearly in k and
// the approach OOMs quickly (Figure 10); concurrent kernel execution buys a
// modest throughput gain until then.

// PackingResult summarizes one packing (or EasyScale sharing) configuration.
type PackingResult struct {
	Workers    int
	PeakMB     float64
	OOM        bool
	Throughput float64 // samples/second (aggregate)
}

// packingConcurrencyGain models the throughput benefit of concurrently
// executing k workers' kernels on one GPU: it saturates quickly — the paper
// measures at most 1.11× over EasyScale.
func packingConcurrencyGain(k int) float64 {
	gain := 1 + 0.04*float64(k-1)
	if gain > 1.12 {
		gain = 1.12
	}
	return gain
}

// SimulatePacking runs the Figure 10 worker-packing configuration: k DDP
// workers on one GPU of the given type/memory.
func SimulatePacking(workload string, k, batch, memMB int) PackingResult {
	w := models.MustBuild(workload, 1)
	dc := device.Config{DeterministicKernels: true, Selection: device.SelectHeuristic}
	dev := device.NewWithMemory(device.V100, memMB, dc)
	dev.SetFLOPsScale(w.SimTimeScale())

	m := w.Memory()
	res := PackingResult{Workers: k}
	for i := 0; i < k; i++ {
		need := float64(dev.Spec.ContextMB) + m.PerWorkerMB(batch)
		if err := dev.Alloc(need); err != nil {
			res.OOM = true
			res.PeakMB = dev.PeakMB()
			return res
		}
	}
	res.PeakMB = dev.PeakMB()

	step := w.StepTime(dev, batch) + core.KernelLaunchOverhead
	// k workers time-share the GPU with concurrency gain: aggregate
	// throughput = gain × one worker's throughput.
	perWorker := float64(batch) / step.Seconds()
	res.Throughput = perWorker * packingConcurrencyGain(k)
	return res
}

// SimulateEasyScaleSharing runs the EasyScale side of Figure 10: k ESTs
// time-sliced in one EasyScale worker — one CUDA context, one
// parameter/optimizer replica, one activation set, per-EST contexts only.
func SimulateEasyScaleSharing(workload string, k, batch, memMB int) PackingResult {
	w := models.MustBuild(workload, 1)
	dc := device.Config{DeterministicKernels: true, Selection: device.SelectHeuristic}
	dev := device.NewWithMemory(device.V100, memMB, dc)
	dev.SetFLOPsScale(w.SimTimeScale())

	m := w.Memory()
	res := PackingResult{Workers: k}
	// EST contexts: RNG states + BatchNorm stats — a rounding error in MB
	ctxMB := 0.01 * float64(k)
	need := float64(dev.Spec.ContextMB) + m.PerWorkerMB(batch) + ctxMB
	if err := dev.Alloc(need); err != nil {
		res.OOM = true
		res.PeakMB = dev.PeakMB()
		return res
	}
	res.PeakMB = dev.PeakMB()

	step := w.StepTime(dev, batch) + core.KernelLaunchOverhead
	// k ESTs run sequentially: aggregate throughput equals one worker's,
	// minus the context-switch overhead per mini-batch.
	switchOverhead := 150 * time.Microsecond
	perStep := step + switchOverhead
	res.Throughput = float64(batch) / perStep.Seconds()
	return res
}
