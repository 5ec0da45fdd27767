// Command easyscale runs one elastic training job on the simulated GPU
// fleet, optionally scaling between placements mid-run, and verifies the
// accuracy-consistency guarantee against a fixed-DoP reference run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	easyscale "repro"
	"repro/internal/core"
	"repro/internal/kernels"
)

func main() {
	model := flag.String("model", "resnet50", "workload name (see cmd/experiments -exp table1)")
	ests := flag.Int("ests", 4, "number of logical workers (ESTs, maxP)")
	batch := flag.Int("batch", 8, "per-EST mini-batch size")
	steps := flag.Int("steps", 60, "global steps per phase")
	level := flag.String("level", "D1", "determinism level: none, D0, D1")
	d2 := flag.Bool("d2", true, "enable heterogeneous determinism (D2)")
	gpus := flag.String("gpus", "V100:4", "initial placement, e.g. V100:2,P100:1")
	scaleTo := flag.String("scale-to", "", "optional second placement to scale to mid-run")
	verify := flag.Bool("verify", true, "compare bitwise against a fixed-DoP reference run")
	saveCkpt := flag.String("save-ckpt", "", "write the final on-demand checkpoint to this file")
	loadCkpt := flag.String("load-ckpt", "", "resume from an on-demand checkpoint file")
	traceOut := flag.String("trace", "", "write a Perfetto-loadable Chrome trace of the run to this file")
	traceSummary := flag.Bool("trace-summary", false, "print a per-span timing summary at the end")
	version := flag.Bool("version", false, "print build and CPU feature information, then exit")
	flag.Parse()

	if *version {
		fmt.Println("easyscale: EasyScale reproduction (elastic training with consistent accuracy)")
		fmt.Printf("cpu: features=%s kernel=%s available=%s\n",
			strings.Join(kernels.CPUFeatures(), ","),
			kernels.ActiveISA(),
			strings.Join(kernels.AvailableISAs(), ","))
		return
	}

	cfg := easyscale.DefaultConfig(*ests)
	cfg.BatchPerEST = *batch
	cfg.D2 = *d2
	switch strings.ToUpper(*level) {
	case "NONE":
		cfg.Level = easyscale.DetNone
	case "D0":
		cfg.Level = easyscale.D0
	case "D1":
		cfg.Level = easyscale.D1
	default:
		fmt.Fprintf(os.Stderr, "unknown level %q\n", *level)
		os.Exit(2)
	}

	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}

	p0, err := core.ParsePlacement(*gpus, *ests)
	die(err)

	var job *easyscale.Job
	if *loadCkpt != "" {
		data, err := os.ReadFile(*loadCkpt)
		die(err)
		job, err = easyscale.RestoreJob(cfg, data)
		die(err)
		fmt.Printf("resumed from %s at global step %d\n", *loadCkpt, job.GlobalStep())
	} else {
		job, err = easyscale.NewJob(cfg, *model)
		die(err)
	}
	// tracing attaches after the job exists and survives Scale; it observes
	// the run without touching its numerics (the -verify comparison below
	// holds with or without it)
	var tr *easyscale.Tracer
	if *traceOut != "" || *traceSummary {
		tr = easyscale.NewTracer()
		job.SetTracer(tr)
	}

	die(job.Attach(p0))
	fmt.Printf("training %s: %d ESTs on %v, level %v D2=%v\n", *model, *ests, p0.Devices, cfg.Level, cfg.D2)
	die(job.RunSteps(*steps))
	fmt.Printf("phase 1 done: step=%d epoch=%d losses=%v\n", job.GlobalStep(), job.Epoch(), job.LastLosses())

	if *scaleTo != "" {
		p1, err := core.ParsePlacement(*scaleTo, *ests)
		die(err)
		fmt.Printf("scaling to %v (on-demand checkpoint + restore)\n", p1.Devices)
		die(job.Scale(p1))
		die(job.RunSteps(*steps))
		fmt.Printf("phase 2 done: step=%d losses=%v\n", job.GlobalStep(), job.LastLosses())
	}

	eval := job.Evaluate()
	fmt.Printf("validation accuracy: %.4f\n", eval.Overall)

	if tr != nil {
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			die(err)
			die(tr.WriteChromeTrace(f))
			die(f.Close())
			fmt.Printf("trace written to %s (open in ui.perfetto.dev)\n", *traceOut)
		}
		if *traceSummary {
			fmt.Print(tr.Summary())
		}
	}

	if *saveCkpt != "" {
		die(os.WriteFile(*saveCkpt, job.Checkpoint(), 0o644))
		fmt.Printf("on-demand checkpoint written to %s\n", *saveCkpt)
	}

	if *verify && cfg.Level == easyscale.D1 {
		ref, err := easyscale.NewJob(cfg, job.Workload.Name)
		die(err)
		refGPUs := make([]easyscale.GPUType, *ests)
		for i := range refGPUs {
			refGPUs[i] = easyscale.V100
		}
		die(ref.Attach(easyscale.EvenPlacement(*ests, refGPUs...)))
		die(ref.RunSteps(job.GlobalStep()))
		if easyscale.ParamsEqual(job, ref) {
			fmt.Printf("consistency: BITWISE IDENTICAL to DDP on %d V100s after %d steps\n", *ests, job.GlobalStep())
		} else {
			fmt.Printf("consistency: DIVERGED from the fixed-DoP reference\n")
			fmt.Print(easyscale.Diagnose(ref, job))
			if cfg.D2 || p0.Homogeneous() {
				os.Exit(1)
			}
			fmt.Println("(expected: heterogeneous placement without D2)")
		}
	}
}
