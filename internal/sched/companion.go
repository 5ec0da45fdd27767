// Package sched implements the EasyScale scheduler (§3.4): the per-job
// companion module with its plan database and analytical waste/throughput
// model (Equations 1a–1d), the intra-job scheduler that maps ESTs onto the
// currently held GPUs and proposes scale-outs, and the inter-job cluster
// scheduler that greedily grants proposals by speedup-per-GPU.
//
// A GPU vector is a Counts, one count per device type, wherever the
// scheduler takes or returns one: plans, holdings, trims, preemptions and
// fallbacks. Resources, the same vector as a map keyed by type, is the form
// a caller hands a free pool in (IntraJob.Proposals, RoundPass,
// Policy.Decide) and is converted with Resources.Counts.
package sched

import (
	"fmt"
	"sort"

	"repro/internal/device"
)

// Counts is the scheduler's per-type GPU vector — N_i GPUs (or, in a plan,
// A_i ESTs per GPU) of each type i, indexed by device.Type. It is a map key
// without rendering a string, and copying it is a clone.
type Counts [device.NumTypes]int

// Total returns the sum over types.
func (c Counts) Total() int {
	n := 0
	for _, k := range c {
		n += k
	}
	return n
}

// String renders the positive entries in type order ("V100:4;P100:2;"), the
// form the decision logs print.
func (c Counts) String() string {
	var b []byte
	for t, n := range c {
		if n > 0 {
			b = fmt.Appendf(b, "%s:%d;", device.Type(t), n)
		}
	}
	return string(b)
}

// Resources is a per-type GPU count keyed by type: the form of an inventory,
// a quota and a free pool where callers hand them in.
type Resources map[device.Type]int

// Clone copies a resource vector, dropping zero entries.
func (r Resources) Clone() Resources {
	out := Resources{}
	for t, n := range r {
		if n != 0 {
			out[t] = n
		}
	}
	return out
}

// Total returns the GPU count.
func (r Resources) Total() int {
	n := 0
	for _, c := range r {
		n += c
	}
	return n
}

// Counts converts r to the vector form.
func (r Resources) Counts() Counts {
	var c Counts
	for t := range c {
		c[t] = r[device.Type(t)]
	}
	return c
}

// Capability is the workload-specific compute capability C_i: mini-batches
// per second one EST achieves on one GPU of each type.
type Capability [device.NumTypes]float64

// Plan is one entry of the companion module's database: a GPU quantity per
// type, the EST-to-GPU mapping (A_i ESTs on each GPU of type i), and the
// model-estimated throughput.
type Plan struct {
	GPUs       Counts
	ESTsPerGPU Counts
	NEST       int     // Σ N_i·A_i (≥ maxP, Eq. 1a)
	Overload   float64 // f_overload (Eq. 1b)
	Waste      float64 // Eq. 1c
	Throughput float64 // Eq. 1d, in mini-batches/sec aggregated
}

// Companion is the intra-job scheduler's standalone companion module: it
// owns the plan database and the performance model, initialized analytically
// (standing in for historical data) and refreshed when observed throughput
// deviates from the estimate.
type Companion struct {
	MaxP int
	Caps Capability

	plans map[Counts]Plan
	// gen counts capability updates: whatever remembers an answer derived
	// from the performance model (IntraJob.Proposals) keys it on gen.
	gen uint64
}

// NewCompanion builds a companion module for a job with maxP ESTs. The
// companion owns its performance model: caps is a value, so feedback one job
// measures never reaches another job's companion or the caller's.
func NewCompanion(maxP int, caps Capability) *Companion {
	if maxP <= 0 {
		panic("sched: maxP must be positive")
	}
	return &Companion{MaxP: maxP, Caps: caps, plans: map[Counts]Plan{}}
}

// assign computes the EST-to-GPU mapping for a resource vector by greedy
// load balancing: repeatedly give one more EST per GPU to the type whose
// per-EST slowdown (A_i+1)/C_i is smallest, until Σ N_i·A_i ≥ maxP — the
// quantum property (integer ESTs) over consecutive computing capabilities.
// ok is false when the vector holds no usable GPUs.
func (cp *Companion) assign(gpus Counts) (a Counts, nEST int, ok bool) {
	for nEST < cp.MaxP {
		best := -1
		bestCost := 0.0
		for t, n := range gpus {
			c := cp.Caps[t]
			if n == 0 || c <= 0 {
				continue
			}
			cost := float64(a[t]+1) / c
			if best < 0 || cost < bestCost {
				best, bestCost = t, cost
			}
		}
		if best < 0 {
			return a, 0, false
		}
		a[best]++
		nEST += gpus[best]
	}
	return a, nEST, true
}

// evaluate applies the waste model (Eq. 1a–1d) to a mapping.
func (cp *Companion) evaluate(gpus, a Counts, nEST int) Plan {
	// fixed type order: the float max over a map range would let Go's
	// randomized iteration order pick between ±0-style ties run to run
	f := 0.0
	for t, ai := range a {
		if ai > 0 {
			if v := float64(ai) / cp.Caps[t]; v > f {
				f = v
			}
		}
	}
	sumCap := 0.0
	waste := 0.0
	for t, n := range gpus {
		if n == 0 {
			continue
		}
		c := cp.Caps[t]
		sumCap += float64(n) * c
		waste += float64(n) * (c - float64(a[t])/f)
	}
	waste += float64(nEST-cp.MaxP) / f
	return Plan{
		GPUs:       gpus,
		ESTsPerGPU: a,
		NEST:       nEST,
		Overload:   f,
		Waste:      waste,
		Throughput: sumCap - waste,
	}
}

// PlanFor returns the database plan for an exact resource vector, computing
// and memoizing it on first use: a hit is one map probe on an array key. ok
// is false when the vector cannot host the job (no usable GPUs).
func (cp *Companion) PlanFor(gpus Counts) (Plan, bool) {
	if p, ok := cp.plans[gpus]; ok {
		return p, true
	}
	if gpus.Total() == 0 {
		return Plan{}, false
	}
	a, nEST, ok := cp.assign(gpus)
	if !ok {
		return Plan{}, false
	}
	p := cp.evaluate(gpus, a, nEST)
	cp.plans[gpus] = p
	return p, true
}

// UpdateCapability refreshes the performance model when the monitored
// throughput biases from the estimate, invalidating the plan database and
// every answer remembered from it.
func (cp *Companion) UpdateCapability(t device.Type, observed float64) {
	if observed <= 0 {
		return
	}
	cp.Caps[t] = observed
	cp.plans = map[Counts]Plan{}
	cp.gen++
}

// sortTypesByCapability returns GPU types fastest-first for deterministic
// placement rendering.
func (cp *Companion) sortTypesByCapability() []device.Type {
	types := device.AllTypes()
	sort.SliceStable(types, func(i, j int) bool { return cp.Caps[types[i]] > cp.Caps[types[j]] })
	return types
}
