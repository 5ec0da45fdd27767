// Autoscale: the deployment loop on a live job. One control plane schedules
// a serving team's replicas and a training job together: the job starts on
// the one GPU the serving load leaves free, scales out as the serving load
// recedes, falls back when a scale-out measures below its plan (Role-3 of
// §3.4), and scales in when a serving burst reclaims the GPUs it borrowed —
// and ends bitwise identical to a fixed-DoP run. It exits non-zero if the
// run diverges or misses any of those events.
package main

import (
	"fmt"
	"log"

	easyscale "repro"
	"repro/internal/controlplane"
	"repro/internal/workload"
)

func main() {
	const ests, steps = 8, 48
	cfg := easyscale.DefaultConfig(ests)
	cfg.BatchPerEST = 4
	job, err := easyscale.NewJob(cfg, "bert")
	if err != nil {
		log.Fatal(err)
	}
	// a tick in which the job on 8 V100s runs four steps; the restart pause
	// is half a tick
	tick := steps / 12 / (ests * controlplane.CapabilityFor("bert")[easyscale.V100])
	fleet := easyscale.Resources{easyscale.V100: 6, easyscale.P100: 2, easyscale.T4: 2}
	plane := controlplane.New(controlplane.Config{
		Inventory: fleet, TickSec: tick, RestartSec: tick / 2, AllowBorrowing: true,
		// the training team has no quota: it runs on GPUs it borrows
		Teams: []controlplane.TeamConfig{{Name: "serve", Quota: fleet}, {Name: "train"}},
	})
	// serving replicas: gangs on the serving team's quota, each done after
	// the given number of ticks
	serving := func(id string, gpu easyscale.GPUType, n int, ticks float64) {
		plane.Submit(workload.JobSpec{ID: id, Model: "neumf", MaxP: n, MinGPUs: n, RequestedType: gpu, Team: "serve",
			WorkSteps: ticks * tick * float64(n) * controlplane.CapabilityFor("neumf")[easyscale.V100]})
	}
	serving("replicas-v100", easyscale.V100, 5, 6)
	serving("replicas-p100", easyscale.P100, 2, 12)
	serving("replicas-t4", easyscale.T4, 2, 18)
	d := easyscale.NewDriver(plane)
	b, err := d.Submit(workload.JobSpec{ID: "bert", Model: "bert", MaxP: ests, WorkSteps: steps, Team: "train"}, job)
	if err != nil {
		log.Fatal(err)
	}

	seen := map[string]int{}
	for i := 0; ; i++ {
		if i == 30 {
			fmt.Println("-- serving burst: a quota-backed gang of 4 V100s arrives")
			serving("burst", easyscale.V100, 4, 1e6)
		}
		printed := len(b.Events)
		if err := d.Tick(float64(i) * tick); err != nil {
			log.Fatal(err)
		}
		for _, ev := range b.Events[printed:] {
			kind := map[int]string{-1: "scale-in (reclaim)", 0: "re-placed", 1: "scale-out"}[min(max(ev.To.Total()-ev.From.Total(), -1), 1)]
			switch {
			case ev.Fallback:
				kind = "fallback (Role-3)"
			case ev.From.Total() == 0:
				kind = "placed"
			}
			seen[kind]++
			fmt.Printf("tick %3d  %-19s %-20s -> %-20s at step %d\n", i, kind, ev.From, ev.To, job.GlobalStep())
		}
		if len(b.Events) > printed && job.Attached() {
			fmt.Printf("%10s ESTs by GPU: %v on %v\n", "", job.Placement().Assignment, job.Placement().Devices)
		}
		if _, done := plane.Progress("bert"); done {
			break
		}
	}

	ref, err := easyscale.NewJob(cfg, "bert")
	if err != nil {
		log.Fatal(err)
	}
	v100s := []easyscale.GPUType{easyscale.V100, easyscale.V100, easyscale.V100, easyscale.V100,
		easyscale.V100, easyscale.V100, easyscale.V100, easyscale.V100}
	if err := ref.Attach(easyscale.EvenPlacement(ests, v100s...)); err != nil {
		log.Fatal(err)
	}
	if err := ref.RunSteps(job.GlobalStep()); err != nil {
		log.Fatal(err)
	}
	if seen["scale-out"] == 0 || seen["fallback (Role-3)"] == 0 || seen["scale-in (reclaim)"] == 0 {
		log.Fatalf("the run missed a scale-out, a fallback or a reclaim: %v", seen)
	}
	if !easyscale.ParamsEqual(job, ref) {
		fmt.Print(easyscale.Diagnose(ref, job))
		log.Fatal("unexpected divergence")
	}
	fmt.Printf("\nresult: after %d steps the plane-driven elastic run is BITWISE IDENTICAL to fixed 8-GPU DDP ✓\n", job.GlobalStep())
}
