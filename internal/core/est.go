package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// ESTContext is the stateful part of an EasyScaleThread — deliberately
// minimal, per §3.2: the model parameters, optimizer states, and temporal
// activations are shared or discarded, so only the determinism-critical
// states remain: the EST's framework RNG bundle, its virtual communication
// rank, and its replica-local implicit model state (BatchNorm running
// statistics), which in DDP evolve per worker from that worker's own batches.
type ESTContext struct {
	VirtualRank int
	RNG         *rng.Bundle
	// ModelState mirrors the model's Stateful tensors (BatchNorm running
	// stats) as this EST's replica would hold them.
	ModelState []*tensor.Tensor
	// Gradients is the EST's last local-step gradient set, swapped to host
	// memory between the local step and the global synchronization; allocated
	// as one block by the EST's first local step here, so a distributed worker
	// holds gradient sets only for the ESTs it has hosted.
	Gradients []*tensor.Tensor
}

// newESTContext derives an EST's initial context from the job seed and the
// model's initial implicit state.
func newESTContext(seed uint64, rank int, modelState []*tensor.Tensor) *ESTContext {
	c := &ESTContext{
		VirtualRank: rank,
		RNG:         rng.NewBundle(seed ^ (uint64(rank)+1)*0x9e3779b97f4a7c15),
	}
	c.ModelState = tensor.NewBlock(len(modelState), func(i int) []int { return modelState[i].Shape() })
	for i, st := range modelState {
		c.ModelState[i].CopyFrom(st)
	}
	return c
}

// switchIn loads this EST's implicit model state into the live model buffers
// — half of a context switch.
func (c *ESTContext) switchIn(modelState []*tensor.Tensor) {
	for i, st := range modelState {
		st.CopyFrom(c.ModelState[i])
	}
}

// switchOut captures the live model buffers back into the context.
func (c *ESTContext) switchOut(modelState []*tensor.Tensor) {
	for i, st := range modelState {
		c.ModelState[i].CopyFrom(st)
	}
}

// Placement maps a job's ESTs onto physical GPUs: Devices lists the GPUs,
// Assignment[i] the virtual ranks hosted by GPU i.
type Placement struct {
	Devices    []device.Type
	Assignment [][]int
}

// EvenPlacement spreads numESTs over the given devices in contiguous
// virtual-rank blocks, remainder to the earlier devices.
func EvenPlacement(numESTs int, devices ...device.Type) Placement {
	p := Placement{Devices: append([]device.Type(nil), devices...)}
	n := len(devices)
	if n == 0 {
		return p
	}
	per := numESTs / n
	rem := numESTs % n
	rank := 0
	for i := 0; i < n; i++ {
		k := per
		if i < rem {
			k++
		}
		var ranks []int
		for j := 0; j < k; j++ {
			ranks = append(ranks, rank)
			rank++
		}
		p.Assignment = append(p.Assignment, ranks)
	}
	return p
}

// ParsePlacement spreads numESTs with EvenPlacement over a GPU list such as
// "V100:2,P100": types as device.Type.String spells them, in any case, each
// with a count of at least 1 (1 when omitted). The placement must pass
// Validate.
func ParsePlacement(spec string, numESTs int) (Placement, error) {
	var gpus []device.Type
	for _, part := range strings.Split(spec, ",") {
		name, count, counted := strings.Cut(strings.TrimSpace(part), ":")
		if !counted {
			count = "1"
		}
		n, err := strconv.Atoi(count)
		i := slices.IndexFunc(device.AllTypes(), func(t device.Type) bool { return strings.EqualFold(t.String(), name) })
		if err != nil || n < 1 || n > numESTs || i < 0 {
			return Placement{}, fmt.Errorf("core: GPU entry %q is not TYPE[:COUNT] with a TYPE of %v and a COUNT in 1..%d", part, device.AllTypes(), numESTs)
		}
		for range n {
			gpus = append(gpus, device.AllTypes()[i])
		}
	}
	p := EvenPlacement(numESTs, gpus...)
	return p, p.Validate(numESTs)
}

// Validate checks that the placement covers every EST exactly once and every
// device hosts at least one EST.
func (p Placement) Validate(numESTs int) error {
	if len(p.Devices) == 0 {
		return fmt.Errorf("core: placement has no devices")
	}
	if len(p.Assignment) != len(p.Devices) {
		return fmt.Errorf("core: placement has %d devices but %d assignments", len(p.Devices), len(p.Assignment))
	}
	seen := make([]bool, numESTs)
	for i, ranks := range p.Assignment {
		if len(ranks) == 0 {
			return fmt.Errorf("core: device %d hosts no ESTs", i)
		}
		for _, r := range ranks {
			if r < 0 || r >= numESTs {
				return fmt.Errorf("core: EST rank %d out of range [0,%d)", r, numESTs)
			}
			if seen[r] {
				return fmt.Errorf("core: EST rank %d assigned twice", r)
			}
			seen[r] = true
		}
	}
	for r, ok := range seen {
		if !ok {
			return fmt.Errorf("core: EST rank %d unassigned", r)
		}
	}
	return nil
}

// Homogeneous reports whether all devices share one type.
func (p Placement) Homogeneous() bool {
	for _, t := range p.Devices[1:] {
		if t != p.Devices[0] {
			return false
		}
	}
	return true
}

// ScanModel inspects a model's layer graph for reliance on vendor-optimized
// hardware-specific kernels (convolutions), the check EasyScale runs on the
// nn.Module graph to decide whether D2 heterogeneous determinism can be
// enabled without unacceptable overhead (§3.3).
func ScanModel(l nn.Layer) bool {
	switch v := l.(type) {
	case *nn.Conv2D:
		return true
	case *nn.Sequential:
		for _, sub := range v.Layers {
			if ScanModel(sub) {
				return true
			}
		}
	case *nn.Residual:
		return ScanModel(v.Body)
	}
	return false
}

// DecideD2 applies EasyScale's automatic policy: enable D2 (and with it,
// heterogeneous GPU elasticity) only for models that do not rely on
// vendor-optimized kernels; other jobs stay on homogeneous GPUs with D1.
func DecideD2(l nn.Layer) bool { return !ScanModel(l) }
