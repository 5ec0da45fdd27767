package easyscale

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/elastic"
	"repro/internal/models"
)

// stageSpec is one resource stage of the Figure 9 experiment.
type stageSpec struct {
	name string
	gpus []device.Type
}

// fig9Stages: stage 0 = 4 V100 (elastic start), stage 1 = 2 V100
// (elasticity), stage 2 = 1 V100 + 2 P100 (heterogeneity).
func fig9Stages() []stageSpec {
	return []stageSpec{
		{"stage0 (4xV100)", []device.Type{device.V100, device.V100, device.V100, device.V100}},
		{"stage1 (2xV100)", []device.Type{device.V100, device.V100}},
		{"stage2 (1xV100+2xP100)", []device.Type{device.V100, device.P100, device.P100}},
	}
}

// fig9Job builds the Figure 9 job — 4 ESTs of batch 4 at the given
// determinism configuration — attached to stage 0's four V100s, which is
// both the DDP reference and where the elastic run starts.
func fig9Job(workload string, level core.Determinism, d2 bool) *core.Job {
	cfg := core.DefaultConfig(4)
	cfg.Level, cfg.D2 = level, d2
	cfg.BatchPerEST = 4
	j, err := core.NewJob(cfg, workload)
	if err != nil {
		panic(err)
	}
	if err := j.Attach(core.EvenPlacement(4, fig9Stages()[0].gpus...)); err != nil {
		panic(err)
	}
	return j
}

// runFixedDDP runs the DDP reference: 4 ESTs on fixed 4 V100s for the whole
// horizon, at the given determinism configuration.
func runFixedDDP(workload string, level core.Determinism, d2 bool, steps int) []float32 {
	j := fig9Job(workload, level, d2)
	losses := make([]float32, 0, steps)
	for s := 0; s < steps; s++ {
		if err := j.RunStep(); err != nil {
			panic(err)
		}
		losses = append(losses, j.LastLosses()[3]) // the last worker, as in the paper
	}
	return losses
}

// runElasticStages runs EasyScale through the three Figure 9 stages with
// on-demand checkpoint scaling between them.
func runElasticStages(workload string, level core.Determinism, d2 bool, stepsPerStage int) []float32 {
	j := fig9Job(workload, level, d2)
	var losses []float32
	for si, st := range fig9Stages() {
		if si > 0 {
			if err := j.Scale(core.EvenPlacement(4, st.gpus...)); err != nil {
				panic(err)
			}
		}
		for s := 0; s < stepsPerStage; s++ {
			if err := j.RunStep(); err != nil {
				panic(err)
			}
			losses = append(losses, j.LastLosses()[3])
		}
	}
	return losses
}

// Fig09LossDiff regenerates Figure 9, the headline experiment: the loss
// difference of EasyScale under D0/D1/D0+D2/D1+D2 against the DDP-homo and
// DDP-heter references across the three resource stages.
func Fig09LossDiff(workload string, stepsPerStage int) Result {
	res := Result{ID: "fig9", Title: "Loss-curve difference of EasyScale vs DDP (" + workload + ")"}
	total := 3 * stepsPerStage
	ddpHomo := runFixedDDP(workload, core.D1, false, total)
	ddpHeter := runFixedDDP(workload, core.D1, true, total)

	configs := []struct {
		name  string
		level core.Determinism
		d2    bool
		ref   []float32
	}{
		{"D0 vs DDP-homo", core.D0, false, ddpHomo},
		{"D1 vs DDP-homo", core.D1, false, ddpHomo},
		{"D0+D2 vs DDP-heter", core.D0, true, ddpHeter},
		{"D1+D2 vs DDP-heter", core.D1, true, ddpHeter},
	}
	res.Rows = append(res.Rows, row("%-20s %14s %14s %14s", "config", "stage0 maxdiff", "stage1 maxdiff", "stage2 maxdiff"))
	for _, c := range configs {
		losses := runElasticStages(workload, c.level, c.d2, stepsPerStage)
		s := Series{Name: c.name}
		var stageMax [3]float64
		for i := range losses {
			d := float64(losses[i]) - float64(c.ref[i])
			if d < 0 {
				d = -d
			}
			stage := i / stepsPerStage
			if d > stageMax[stage] {
				stageMax[stage] = d
			}
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, d)
		}
		res.Series = append(res.Series, s)
		res.Rows = append(res.Rows, row("%-20s %14.3e %14.3e %14.3e", c.name, stageMax[0], stageMax[1], stageMax[2]))
	}
	res.Rows = append(res.Rows,
		row("(paper: D1 identical to DDP-homo through stages 0-1, diverges at stage 2;"),
		row(" D1+D2 identical to DDP-heter in ALL stages; D0 diverges from stage 1)"),
	)
	return res
}

// Fig10PackingVsEST regenerates Figure 10: peak GPU memory and throughput of
// Gandiva-style worker packing vs EasyScale EST sharing on one V100.
func Fig10PackingVsEST(workload string, batch, memMB int) Result {
	res := Result{ID: "fig10", Title: fmt.Sprintf("Worker packing vs EasyScale on one V100 (%s, batch %d, %d MB)", workload, batch, memMB)}
	res.Rows = append(res.Rows, row("%8s | %22s | %22s", "workers", "packing thr / peakGB", "EasyScale thr / peakGB"))
	var thrBase float64
	for _, k := range []int{1, 2, 4, 6, 8, 10, 12, 16} {
		pk := elastic.SimulatePacking(workload, k, batch, memMB)
		es := elastic.SimulateEasyScaleSharing(workload, k, batch, memMB)
		if k == 1 {
			thrBase = pk.Throughput
		}
		pkCol := "OOM"
		if !pk.OOM {
			pkCol = fmt.Sprintf("%.2fx / %.1f", pk.Throughput/thrBase, pk.PeakMB/1024)
		}
		esCol := "OOM"
		if !es.OOM {
			esCol = fmt.Sprintf("%.2fx / %.1f", es.Throughput/thrBase, es.PeakMB/1024)
		}
		res.Rows = append(res.Rows, row("%8d | %22s | %22s", k, pkCol, esCol))
	}
	res.Rows = append(res.Rows, row("(paper: packing OOMs past 8 workers for ResNet50@32 / past 2 for ShuffleNetV2@512;"),
		row(" EasyScale memory constant, packing throughput at most ~1.11x)"))
	return res
}

// Fig11CtxSwitch regenerates Figure 11: per-iteration time with and without
// EST context switching, one EST per GPU.
func Fig11CtxSwitch(steps int) Result {
	res := Result{ID: "fig11", Title: "Context switching overhead (1 EST per GPU)"}
	res.Rows = append(res.Rows, row("%-16s %12s %12s %9s", "model", "w/o switch", "w/ switch", "overhead"))
	maxOv := 0.0
	for _, name := range models.Names() {
		t0 := measureStepTime(name, false, steps)
		t1 := measureStepTime(name, true, steps)
		ov := (t1.Seconds() - t0.Seconds()) / t0.Seconds()
		if ov > maxOv {
			maxOv = ov
		}
		res.Rows = append(res.Rows, row("%-16s %12v %12v %8.2f%%", name, t0, t1, ov*100))
	}
	res.Rows = append(res.Rows, row("max overhead %.2f%% (paper: negligible, max 1.9%%)", maxOv*100))
	return res
}

// measureStepTime is measureOnType on a V100 at D1.
func measureStepTime(workload string, ctxSwitch bool, steps int) time.Duration {
	return measureOnType(workload, device.V100, core.D1, false, ctxSwitch, steps)
}

// Fig12DeterminismOverhead regenerates Figure 12: per-iteration time of
// EasyScale-D1 and EasyScale-D1+D2 normalized to the stock baseline on each
// GPU type.
func Fig12DeterminismOverhead(steps int) Result {
	res := Result{ID: "fig12", Title: "Overhead of ensuring accuracy-consistency (normalized time; V100/P100/T4)"}
	res.Rows = append(res.Rows, row("%-16s %21s %21s", "model", "D1 (V/P/T)", "D1+D2 (V/P/T)"))
	var convMax, gemmMax float64
	for _, name := range models.Names() {
		var d1s, d2s [3]float64
		for i, t := range device.AllTypes() {
			base := measureOnType(name, t, core.DetNone, false, true, steps)
			d1 := measureOnType(name, t, core.D1, false, true, steps)
			d12 := measureOnType(name, t, core.D1, true, true, steps)
			d1s[i] = d1.Seconds() / base.Seconds()
			d2s[i] = d12.Seconds() / base.Seconds()
		}
		w := models.MustBuild(name, 0)
		for _, v := range d2s {
			if w.UsesVendorKernels && v-1 > convMax {
				convMax = v - 1
			}
			if !w.UsesVendorKernels && v-1 > gemmMax {
				gemmMax = v - 1
			}
		}
		res.Rows = append(res.Rows, row("%-16s %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f",
			name, d1s[0], d1s[1], d1s[2], d2s[0], d2s[1], d2s[2]))
	}
	res.Rows = append(res.Rows,
		row("max D1+D2 overhead: conv-family %.0f%%, GEMM-family %.1f%%", convMax*100, gemmMax*100),
		row("(paper: D1 negligible everywhere; D1+D2 ~236%% avg on conv models, <1%% on others)"),
	)
	return res
}

// measureOnType runs one job (1 EST of batch 64 on one GPU of type t) and
// returns the mean simulated step time.
func measureOnType(workload string, t device.Type, level core.Determinism, d2, ctxSwitch bool, steps int) time.Duration {
	cfg := core.DefaultConfig(1)
	cfg.Level, cfg.D2 = level, d2
	cfg.BatchPerEST = 64
	cfg.DisableContextSwitch = !ctxSwitch
	j, err := core.NewJob(cfg, workload)
	if err != nil {
		panic(err)
	}
	if err := j.Attach(core.EvenPlacement(1, t)); err != nil {
		panic(err)
	}
	dev := j.Devices()[0]
	before := dev.Now()
	if err := j.RunSteps(steps); err != nil {
		panic(err)
	}
	return (dev.Now() - before) / time.Duration(steps)
}

// Fig13GradCopySync regenerates Figure 13: per-EST execution time of 8 ESTs
// sharing one V100 (EST 0–6 overlap their gradient copies with the adjacent
// compute; EST 7 additionally performs the gradient synchronization), against
// DDP on 8 GPUs. Timings compose the measured compute time with the
// execution model’s copy/sync costs: DDP workers pay the ring all-reduce
// plus the straggler jitter of synchronizing eight independently-scheduled
// processes, while EST 7 starts the ring with every replica’s gradients
// already resident — the effect the paper measures.
func Fig13GradCopySync(steps int) Result {
	res := Result{ID: "fig13", Title: "Gradient copy & sync overhead: 8 ESTs on 1 GPU vs DDP on 8 GPUs"}
	res.Rows = append(res.Rows, row("%-16s %12s %12s %12s %16s", "model", "DDP0-7", "EST0-6", "EST7", "(ratios)"))
	const ddpJitter = 0.10 // straggling gradient production across 8 processes
	for _, name := range models.Names() {
		compute := measureStepTime(name, false, steps)
		w := models.MustBuild(name, 0)
		copyDur := time.Duration(w.Memory().ParamsMB * 1e6 / (core.PCIeGBps * 1e9) * float64(time.Second))
		hidden := time.Duration(float64(compute) * core.CopyOverlap)
		extra := copyDur - hidden
		if extra < 0 {
			extra = 0
		}
		ring := time.Duration(w.Memory().ParamsMB * 1e6 * 2 * 7 / 8 / (core.AllReduceGBps * 1e9) * float64(time.Second))
		ddp := compute + ring + time.Duration(float64(compute)*ddpJitter)
		est06 := compute + extra + core.CtxSwitchCost
		est7 := compute + extra + ring + core.CtxSwitchCost
		res.Rows = append(res.Rows, row("%-16s %12v %12v %12v   (%.2f / %.2f)",
			name, ddp.Round(10*time.Microsecond), est06.Round(10*time.Microsecond), est7.Round(10*time.Microsecond),
			est06.Seconds()/ddp.Seconds(), est7.Seconds()/ddp.Seconds()))
	}
	res.Rows = append(res.Rows, row("(paper: EST0-6 superior to DDP thanks to copy overlap; EST7 competitive)"))
	return res
}

// DataWorkerSharing regenerates the §5.1.2 data-worker sharing measurement:
// first-mini-batch latency with naive per-EST workers vs shared workers.
func DataWorkerSharing(workersPerEST, numESTs int) Result {
	res := Result{ID: "dws", Title: "Data worker sharing: first-mini-batch latency"}
	naive := data.FirstBatchLatency(workersPerEST * numESTs)
	shared := data.FirstBatchLatency(workersPerEST)
	red := 1 - shared.Seconds()/naive.Seconds()
	res.Rows = append(res.Rows,
		row("naive:  %d data workers → %v", workersPerEST*numESTs, naive),
		row("shared: %d data workers → %v", workersPerEST, shared),
		row("first-mini-batch time reduction: %.1f%% (paper: 67.1%% avg, workers 32→4)", red*100),
	)
	return res
}
