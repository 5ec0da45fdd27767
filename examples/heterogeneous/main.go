// Heterogeneous scheduling: use the companion module's waste model to plan an
// EST-to-GPU mapping over mixed V100/P100/T4 GPUs, let the model scanner
// decide D2 admissibility, and train with bitwise consistency across GPU
// types.
package main

import (
	"fmt"
	"log"

	easyscale "repro"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/models"
)

func main() {
	const maxP = 8

	// The companion module estimates throughput for candidate allocations
	// using the waste model (Eq. 1a-1d of the paper).
	for _, name := range []string{"bert", "resnet50"} {
		w := models.MustBuild(name, 1)
		d2OK := core.DecideD2(w.Net)
		fmt.Printf("%s: relies on vendor kernels = %v → heterogeneous GPUs allowed = %v\n",
			name, w.UsesVendorKernels, d2OK)

		cp := easyscale.NewCompanion(maxP, controlplane.CapabilityFor(name))
		intra := easyscale.NewIntraJob(name, cp, !d2OK)
		candidates := []easyscale.Counts{
			{easyscale.V100: 2},
			{easyscale.V100: 1, easyscale.P100: 2},
			{easyscale.V100: 2, easyscale.P100: 2, easyscale.T4: 2},
		}
		for _, r := range candidates {
			plan, ok := intra.Apply(r)
			if !ok {
				fmt.Printf("  %-30s rejected (homogeneity policy)\n", r)
				continue
			}
			fmt.Printf("  %-30s ESTs/GPU %v, est. throughput %.2f steps/s, waste %.2f\n",
				r, perGPU(plan.ESTsPerGPU), plan.Throughput, plan.Waste)
		}
	}

	// Train bert (D2-capable) on a heterogeneous mix and verify bitwise
	// consistency against fixed homogeneous DDP.
	cfg := easyscale.DefaultConfig(maxP)
	cfg.BatchPerEST = 4

	ref, err := easyscale.NewJob(cfg, "bert")
	if err != nil {
		log.Fatal(err)
	}
	homog := make([]easyscale.GPUType, maxP)
	for i := range homog {
		homog[i] = easyscale.V100
	}
	if err := ref.Attach(easyscale.EvenPlacement(maxP, homog...)); err != nil {
		log.Fatal(err)
	}
	if err := ref.RunSteps(30); err != nil {
		log.Fatal(err)
	}

	het, err := easyscale.NewJob(cfg, "bert")
	if err != nil {
		log.Fatal(err)
	}
	mixed := easyscale.EvenPlacement(maxP, easyscale.V100, easyscale.P100, easyscale.T4)
	if err := het.Attach(mixed); err != nil {
		log.Fatal(err)
	}
	if err := het.RunSteps(30); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nbert on %v vs DDP on 8x V100 after 30 steps:\n", mixed.Devices)
	if easyscale.ParamsEqual(ref, het) {
		fmt.Println("  BITWISE IDENTICAL (D1+D2 heterogeneous determinism) ✓")
	} else {
		log.Fatal("  diverged — unexpected under D1+D2")
	}
}

// perGPU keys a plan's ESTs per GPU by the types it uses.
func perGPU(a easyscale.Counts) map[easyscale.GPUType]int {
	m := map[easyscale.GPUType]int{}
	for t, n := range a {
		if n > 0 {
			m[easyscale.GPUType(t)] = n
		}
	}
	return m
}
