// Package workload generates the synthetic workload traces behind the paper's
// cluster experiments: Philly-style job arrivals with a production-like
// runtime distribution (the 64-GPU trace experiment, §5.2), the diurnal
// online-serving GPU load of the production cluster (Figures 1 and 16), and
// the 8-GPU serving gangs that hold that load on the control plane.
package workload

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/rng"
)

// JobSpec is one training job of a trace.
type JobSpec struct {
	ID    string
	Model string
	// MaxP is the requested degree of parallelism: the gang size under
	// YARN-CS and the number of ESTs under EasyScale.
	MaxP int
	// HomogeneousOnly marks jobs whose model relies on vendor kernels (no
	// D2): EasyScale restricts them to one GPU type.
	HomogeneousOnly bool
	// ArrivalSec is the submission time.
	ArrivalSec float64
	// WorkSteps is the total number of global mini-batch steps the job
	// must complete.
	WorkSteps float64
	// RequestedType is the GPU type the user's gang request pins (YARN-CS
	// allocates exactly this type; EasyScale ignores it).
	RequestedType device.Type
	// Team names the budget envelope that funds this job's leases under the
	// multi-tenant control plane ("" means the default single-tenant
	// envelope).
	Team string
	// Priority orders reservation retries under the control plane: higher
	// goes first; ties break by submission order.
	Priority int
	// MinGPUs is the admission floor: the control plane admits the job only
	// once it can lease this many GPUs of RequestedType (0 means fully
	// elastic — admit immediately with zero GPUs and grow by proposals, the
	// EasyScale default).
	MinGPUs int
}

// SizeDist is a gang-size distribution.
type SizeDist []struct {
	Size int
	Prob float64
}

// TraceSizes follows the 64-GPU trace experiment: most jobs are small, a
// heavy tail requests 8–16 GPUs (nothing beyond one type's capacity).
var TraceSizes = SizeDist{
	{1, 0.40}, {2, 0.20}, {4, 0.17}, {8, 0.13}, {16, 0.10},
}

// ProductionSizes follows the production-cluster statistic of §2.1, where
// gangs up to 64 GPUs exist and large jobs dominate revocation failures.
var ProductionSizes = SizeDist{
	{1, 0.35}, {2, 0.18}, {4, 0.15}, {8, 0.12}, {16, 0.10}, {32, 0.06}, {64, 0.04},
}

// Generate produces n jobs for the 64-GPU trace experiment: exponential
// inter-arrival times with the given mean, the TraceSizes gang distribution,
// models drawn uniformly from Table 1, and log-normal runtimes (median ~40
// minutes single-V100-equivalent) down-sampled from production training
// jobs, converted to global steps through the model's V100 step rate.
func Generate(n int, meanInterArrivalSec float64, seed uint64) []JobSpec {
	return generate(n, meanInterArrivalSec, seed, TraceSizes)
}

// GenerateProduction produces jobs with the production gang-size tail, for
// the §2.1 revocation statistics.
func GenerateProduction(n int, meanInterArrivalSec float64, seed uint64) []JobSpec {
	return generate(n, meanInterArrivalSec, seed, ProductionSizes)
}

func generate(n int, meanInterArrivalSec float64, seed uint64, sizes SizeDist) []JobSpec {
	s := rng.NewNamed(seed, "trace")
	names := models.TableNames()
	jobs := make([]JobSpec, n)
	now := 0.0
	v100GFLOPS := device.SpecOf(device.V100).PeakGFLOPS
	for i := range jobs {
		now += expVariate(s, meanInterArrivalSec)
		size := sampleSize(s, sizes)
		model := names[s.Intn(len(names))]
		w := models.MustBuild(model, 0)
		// log-normal gang runtime, median 2400 s, capped at 6 h; total work
		// scales with the requested parallelism (a 16-GPU job carries 16
		// GPUs' worth of work)
		runtime := math.Exp(math.Log(2400) + 1.0*s.NormFloat64())
		if runtime > 6*3600 {
			runtime = 6 * 3600
		}
		jobs[i] = JobSpec{
			ID:              fmt.Sprintf("job-%03d", i),
			Model:           model,
			MaxP:            size,
			HomogeneousOnly: w.UsesVendorKernels,
			ArrivalSec:      now,
			WorkSteps:       runtime * float64(size) * w.StepRate(v100GFLOPS),
			RequestedType:   requestType(s),
		}
	}
	return jobs
}

// GenerateTenants produces a multi-team trace for the control-plane
// experiments: the TraceSizes mix with jobs assigned round-trip-free to the
// given teams, a small priority spread, and a quarter of the jobs carrying a
// hard gang floor (MinGPUs = MaxP) so reservations and preemption-on-reclaim
// actually trigger.
func GenerateTenants(n int, teams []string, meanInterArrivalSec float64, seed uint64) []JobSpec {
	jobs := generate(n, meanInterArrivalSec, seed, TraceSizes)
	if len(teams) == 0 {
		return jobs
	}
	s := rng.NewNamed(seed, "tenants")
	for i := range jobs {
		jobs[i].Team = teams[s.Intn(len(teams))]
		jobs[i].Priority = s.Intn(3)
		if s.Float64() < 0.25 {
			jobs[i].MinGPUs = jobs[i].MaxP
		}
	}
	return jobs
}

func expVariate(s *rng.Stream, mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// requestType models users' gang-request GPU preferences: most ask for the
// fastest type.
func requestType(s *rng.Stream) device.Type {
	u := s.Float64()
	switch {
	case u < 0.70:
		return device.V100
	case u < 0.90:
		return device.P100
	default:
		return device.T4
	}
}

func sampleSize(s *rng.Stream, sizes SizeDist) int {
	u := s.Float64()
	acc := 0.0
	for _, g := range sizes {
		acc += g.Prob
		if u < acc {
			return g.Size
		}
	}
	return sizes[len(sizes)-1].Size
}

// ServingLoad models the online-serving cluster's GPU demand per minute over
// the given horizon: a diurnal sine (peak in the evening, trough at night)
// plus short-term noise and occasional traffic bursts, scaled so the
// idle-vs-peak gap is a large fraction of the fleet — the ~2,000-GPU swing
// Figure 1 reports on a 3,000+ GPU cluster.
func ServingLoad(minutes, totalGPUs int, seed uint64) []int {
	s := rng.NewNamed(seed, "serving")
	out := make([]int, minutes)
	base := 0.55 * float64(totalGPUs)
	amp := 0.28 * float64(totalGPUs)
	burst := 0.0
	for m := 0; m < minutes; m++ {
		hour := float64(m%1440) / 60.0
		// diurnal peak around 20:00, trough around 05:00
		diurnal := math.Sin((hour - 11) / 24 * 2 * math.Pi)
		noise := 0.02 * float64(totalGPUs) * s.NormFloat64()
		// bursts arrive rarely and decay over ~30 minutes
		if s.Float64() < 0.002 {
			burst = 0.1 * float64(totalGPUs)
		}
		burst *= 0.97
		v := base + amp*diurnal + noise + burst
		if v < 0 {
			v = 0
		}
		if v > float64(totalGPUs) {
			v = float64(totalGPUs)
		}
		out[m] = int(v)
	}
	return out
}

// servingGang is the GPUs of one serving gang: one 8-GPU node.
const servingGang = 8

// ServingGangs turns a per-minute serving demand into the quota-backed jobs
// that hold it: a minute needs ⌈load/8⌉ 8-V100 gangs, and gang level k is one
// job for each maximal run of minutes in which at least k gangs are needed.
// Each job arrives at its run's first minute, pins MinGPUs = MaxP = 8 V100s,
// and carries 8 V100s' worth of resnet50 steps for the run's length, so a
// plane that admits it at once finishes it on the tick its run ends. Its ID
// is serve-<first minute>-<level>.
func ServingGangs(load []int) []JobSpec {
	rate := servingGang * models.MustBuild("resnet50", 0).StepRate(device.SpecOf(device.V100).PeakGFLOPS)
	var jobs []JobSpec
	var open []int // open[k]: the first minute of level k+1's current run
	// a 0 past the end closes every run
	for m, d := range append(load[:len(load):len(load)], 0) {
		need := (d + servingGang - 1) / servingGang
		for k := len(open) - 1; k >= need; k-- {
			jobs = append(jobs, JobSpec{ID: fmt.Sprintf("serve-%d-%d", open[k], k+1), Model: "resnet50",
				MaxP: servingGang, MinGPUs: servingGang, RequestedType: device.V100,
				ArrivalSec: float64(60 * open[k]), WorkSteps: rate * float64(60*(m-open[k]))})
		}
		open = open[:min(len(open), need)]
		for len(open) < need {
			open = append(open, m)
		}
	}
	return jobs
}

// LoadStats summarizes a serving-load series.
type LoadStats struct {
	Min, Max, Mean int
	Gap            int // Max - Min: the reclaimable idle capacity
}

// Stats computes summary statistics of a load series.
func Stats(load []int) LoadStats {
	if len(load) == 0 {
		return LoadStats{}
	}
	st := LoadStats{Min: load[0], Max: load[0]}
	sum := 0
	for _, v := range load {
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		sum += v
	}
	st.Mean = sum / len(load)
	st.Gap = st.Max - st.Min
	return st
}
