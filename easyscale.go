// Package easyscale is the public API of the EasyScale reproduction: elastic
// distributed training with bitwise-consistent model accuracy on simulated
// homogeneous and heterogeneous GPUs, plus the hierarchical scheduler and the
// cluster simulator of the paper's evaluation.
//
// The core workflow:
//
//	cfg := easyscale.DefaultConfig(4)               // 4 logical workers (ESTs)
//	job, _ := easyscale.NewJob(cfg, "resnet50")
//	job.Attach(easyscale.EvenPlacement(4, easyscale.V100, easyscale.V100))
//	job.RunSteps(100)
//	job.Scale(easyscale.EvenPlacement(4, easyscale.V100)) // elastic scale-in
//	job.RunSteps(100)                                      // bitwise-identical to fixed-DoP DDP
//
// Under determinism level D1 the parameters after any such elastic schedule
// are bitwise identical to a fixed-DoP DDP run on homogeneous GPUs; with D2
// enabled the guarantee extends to heterogeneous GPU types (V100/P100/T4).
package easyscale

import (
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Determinism levels (§3.3 of the paper).
type Determinism = core.Determinism

// Determinism levels re-exported from the core engine.
const (
	// DetNone reproduces stock-framework non-determinism.
	DetNone = core.DetNone
	// D0 is static determinism: identical runs on fixed resources.
	D0 = core.D0
	// D1 is elastic determinism: identical runs across GPU counts.
	D1 = core.D1
)

// GPU types of the simulated fleet.
const (
	V100 = device.V100
	P100 = device.P100
	T4   = device.T4
)

// GPUType identifies a simulated GPU model.
type GPUType = device.Type

// CustomKernel is a user-tuned hardware-agnostic D2 kernel (the paper's
// future-work customization path); set it on Config.D2Kernel.
type CustomKernel = device.CustomKernel

// Config configures an EasyScale training job.
type Config = core.Config

// Job is an elastic training job.
type Job = core.Job

// Placement maps ESTs to physical GPUs.
type Placement = core.Placement

// EvalResult is a validation accuracy report.
type EvalResult = core.EvalResult

// DefaultConfig returns a D1+D2 configuration with numESTs logical workers.
func DefaultConfig(numESTs int) Config { return core.DefaultConfig(numESTs) }

// NewJob builds a job for one of the Table 1 workloads (see Workloads).
func NewJob(cfg Config, workload string) (*Job, error) { return core.NewJob(cfg, workload) }

// RestoreJob reconstructs a job from an on-demand checkpoint.
func RestoreJob(cfg Config, ckpt []byte) (*Job, error) { return core.RestoreJob(cfg, ckpt) }

// EvenPlacement spreads numESTs over the given GPUs.
func EvenPlacement(numESTs int, gpus ...GPUType) Placement {
	return core.EvenPlacement(numESTs, gpus...)
}

// ParamsEqual reports bitwise equality of two jobs' model parameters — the
// paper's consistency criterion.
func ParamsEqual(a, b *Job) bool { return core.ParamsEqual(a, b) }

// DivergenceReport localizes where two jobs' states differ.
type DivergenceReport = core.DivergenceReport

// Diagnose compares two jobs that should be bitwise identical and reports
// which parameters and which determinism-relevant states diverged — the
// paper's §3.3 top-down tensor comparison as a tool.
func Diagnose(a, b *Job) DivergenceReport { return core.Diagnose(a, b) }

// Tracer records execution spans, counters, and scheduler decision events
// for one run. Attach it with Job.SetTracer, then export with
// Tracer.WriteChromeTrace — the output loads in ui.perfetto.dev — or
// Tracer.Summary. Tracing is provably invisible to numerics: a traced run is
// bitwise identical to an untraced one.
type Tracer = obs.Tracer

// NewTracer builds an execution tracer.
func NewTracer() *Tracer { return obs.New() }

// Scheduler types re-exported for cluster-level use.
type (
	// Counts is a per-GPU-type vector: held GPUs, a plan's ESTs per GPU.
	Counts = sched.Counts
	// Resources counts GPUs per type in the keyed form an inventory takes.
	Resources = sched.Resources
	// Capability is a per-GPU-type throughput model.
	Capability = sched.Capability
	// Plan is a companion-module scheduling plan.
	Plan = sched.Plan
	// Proposal is an intra-job scale-out request.
	Proposal = sched.Proposal
	// IntraJob is the per-job scheduler.
	IntraJob = sched.IntraJob
	// Companion is the plan database + performance model.
	Companion = sched.Companion
)

// NewCompanion builds a companion module for a job with maxP ESTs.
func NewCompanion(maxP int, caps Capability) *Companion { return sched.NewCompanion(maxP, caps) }

// NewIntraJob builds an intra-job scheduler.
func NewIntraJob(jobID string, cp *Companion, homogeneousOnly bool) *IntraJob {
	return sched.NewIntraJob(jobID, cp, homogeneousOnly)
}
