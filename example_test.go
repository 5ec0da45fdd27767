package easyscale_test

import (
	"fmt"

	easyscale "repro"
)

// Example demonstrates the core guarantee: an elastic run that scales from
// four GPUs down to one produces bitwise-identical parameters to a fixed
// four-GPU DDP run.
func Example() {
	cfg := easyscale.DefaultConfig(4) // 4 logical workers (ESTs)
	cfg.BatchPerEST = 4

	ref, _ := easyscale.NewJob(cfg, "electra")
	ref.Attach(easyscale.EvenPlacement(4, easyscale.V100, easyscale.V100, easyscale.V100, easyscale.V100))
	ref.RunSteps(8)

	elastic, _ := easyscale.NewJob(cfg, "electra")
	elastic.Attach(easyscale.EvenPlacement(4, easyscale.V100, easyscale.V100, easyscale.V100, easyscale.V100))
	elastic.RunSteps(4)
	elastic.Scale(easyscale.EvenPlacement(4, easyscale.V100)) // on-demand checkpoint
	elastic.RunSteps(4)

	fmt.Println("bitwise identical:", easyscale.ParamsEqual(ref, elastic))
	// Output: bitwise identical: true
}

// ExampleNewCompanion shows the waste/throughput model (Eq. 1a-1d) planning
// an EST-to-GPU mapping over heterogeneous GPUs.
func ExampleNewCompanion() {
	caps := easyscale.Capability{easyscale.V100: 1.0, easyscale.P100: 0.5}
	cp := easyscale.NewCompanion(4, caps) // maxP = 4 ESTs
	intra := easyscale.NewIntraJob("job-0", cp, false)
	plan, _ := intra.Apply(easyscale.Counts{easyscale.V100: 1, easyscale.P100: 1})
	fmt.Printf("ESTs per V100: %d, per P100: %d, throughput %.2f steps/s\n",
		plan.ESTsPerGPU[easyscale.V100], plan.ESTsPerGPU[easyscale.P100], plan.Throughput)
	// Output: ESTs per V100: 3, per P100: 1, throughput 1.33 steps/s
}

// ExampleJob_Checkpoint shows on-demand checkpointing across a process
// boundary: serialize, restore, continue.
func ExampleJob_Checkpoint() {
	cfg := easyscale.DefaultConfig(2)
	cfg.BatchPerEST = 4
	job, _ := easyscale.NewJob(cfg, "neumf")
	job.Attach(easyscale.EvenPlacement(2, easyscale.V100))
	job.RunSteps(3)
	blob := job.Checkpoint() // → write to disk / ship over the network

	restored, _ := easyscale.RestoreJob(cfg, blob)
	restored.Attach(easyscale.EvenPlacement(2, easyscale.P100, easyscale.T4))
	restored.RunSteps(3)
	fmt.Println("resumed at step:", restored.GlobalStep())
	// Output: resumed at step: 6
}
