package controlplane

import (
	"fmt"
	"sort"

	"repro/internal/device"
	"repro/internal/sched"
)

// Node is one simulated machine: a fixed-size slice of same-type GPUs. The
// control plane packs leases onto nodes so the fragmentation report can tell
// apart "free GPUs" from "free GPUs usable as a gang".
type Node struct {
	ID   string
	Type device.Type
	Cap  int
	Used int
	idx  int // position in Plane.nodes
}

// Free returns the node's unallocated GPUs.
func (n *Node) Free() int { return n.Cap - n.Used }

// NodeShare is a lease's slice of one node.
type NodeShare struct {
	NodeID string
	Count  int
	node   *Node
}

// Strategy is the pluggable bin-packing policy, stated as a preference
// between two same-type candidate nodes; the plane fills the most preferred
// node that has free capacity, then the next. An implementation must be a
// strict total order (ties broken by node ID), so placement is deterministic.
type Strategy interface {
	Name() string
	// Less reports whether a is preferred over b.
	Less(a, b *Node) bool
}

// BestFit packs the most-utilized node first, consolidating jobs onto few
// nodes and keeping whole nodes free for gangs.
type BestFit struct{}

// Name implements Strategy.
func (BestFit) Name() string { return "bestfit" }

// Less implements Strategy.
func (BestFit) Less(a, b *Node) bool {
	if a.Used != b.Used {
		return a.Used > b.Used
	}
	return a.ID < b.ID
}

// FirstFit packs nodes in inventory order.
type FirstFit struct{}

// Name implements Strategy.
func (FirstFit) Name() string { return "firstfit" }

// Less implements Strategy.
func (FirstFit) Less(a, b *Node) bool { return a.ID < b.ID }

// WorstFit packs the least-utilized node first, spreading load (lower
// per-node contention at the cost of fragmentation).
type WorstFit struct{}

// Name implements Strategy.
func (WorstFit) Name() string { return "worstfit" }

// Less implements Strategy.
func (WorstFit) Less(a, b *Node) bool {
	if a.Used != b.Used {
		return a.Used < b.Used
	}
	return a.ID < b.ID
}

// StrategyByName resolves a strategy flag value.
func StrategyByName(name string) (Strategy, bool) {
	switch name {
	case "bestfit", "":
		return BestFit{}, true
	case "firstfit":
		return FirstFit{}, true
	case "worstfit":
		return WorstFit{}, true
	}
	return nil, false
}

// TypeFrag is the fragmentation summary for one GPU type.
type TypeFrag struct {
	Type         device.Type
	Nodes        int
	FullNodes    int
	EmptyNodes   int
	PartialNodes int
	FreeGPUs     int
	// FreeInPartial is the share of free capacity trapped on
	// partially-occupied nodes — GPUs a whole-node gang cannot use.
	FreeInPartial int
	// FragRatio is FreeInPartial / FreeGPUs (0 when nothing is free).
	FragRatio float64
	// ConsolidationMoves is how many allocated GPUs would have to migrate to
	// repack the type onto the fewest nodes (EasyScale's bitwise-consistent
	// Scale path makes each move accuracy-free).
	ConsolidationMoves int
}

// fragmentation computes the per-type report from the node inventory.
func fragmentation(nodes []*Node) []TypeFrag {
	var out []TypeFrag
	for _, t := range device.AllTypes() {
		var f TypeFrag
		f.Type = t
		var used, capTotal int
		var ofType []*Node
		for _, n := range nodes {
			if n.Type != t {
				continue
			}
			ofType = append(ofType, n)
			f.Nodes++
			used += n.Used
			capTotal += n.Cap
			switch {
			case n.Used == 0:
				f.EmptyNodes++
			case n.Used == n.Cap:
				f.FullNodes++
			default:
				f.PartialNodes++
				f.FreeInPartial += n.Free()
			}
		}
		if f.Nodes == 0 {
			continue
		}
		f.FreeGPUs = capTotal - used
		if f.FreeGPUs > 0 {
			f.FragRatio = float64(f.FreeInPartial) / float64(f.FreeGPUs)
		}
		// fewest nodes that could host the allocated GPUs: fill the
		// most-utilized nodes first; everything on the remainder must move
		sort.SliceStable(ofType, func(i, j int) bool { return BestFit{}.Less(ofType[i], ofType[j]) })
		remaining := used
		for _, n := range ofType {
			if remaining <= 0 {
				f.ConsolidationMoves += n.Used
				continue
			}
			remaining -= n.Cap
		}
		out = append(out, f)
	}
	return out
}

// buildNodes splits the inventory into NodeGPUs-sized nodes per type, in
// device.AllTypes order.
func buildNodes(inv sched.Counts, nodeGPUs int) []*Node {
	var out []*Node
	for _, t := range device.AllTypes() {
		left := inv[t]
		for i := 0; left > 0; i++ {
			c := nodeGPUs
			if c > left {
				c = left
			}
			out = append(out, &Node{ID: fmt.Sprintf("%s-%03d", t, i), Type: t, Cap: c, idx: len(out)})
			left -= c
		}
	}
	return out
}
