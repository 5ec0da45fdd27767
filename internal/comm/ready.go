package comm

// ObservedReadyOrderSeeded returns the gradient ready order the communication
// layer observes during the first mini-batch. groups lists parameter indices
// layer by layer in backward (gradient-derivation) order; parameters within a
// layer finish nearly simultaneously, so their observed order is shuffled —
// here as a pure function of the salt. With a single parameter per group the
// order is deterministic. The salt is the global step at which the
// first-iteration rebuild runs, so identical runs observe identical orders —
// but a job restarted mid-training rebuilds at a later step, observes a
// different order, and silently changes the bucket mapping, which is exactly
// the divergence D1 fixes by checkpointing the mapping.
func ObservedReadyOrderSeeded(groups [][]int, salt uint64) []int {
	var out []int
	for _, g := range groups {
		perm := append([]int(nil), g...)
		for i := len(perm) - 1; i > 0; i-- {
			z := salt + uint64(i)*0xbf58476d1ce4e5b9
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			j := int(z % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		out = append(out, perm...)
	}
	return out
}

// BackwardGroups builds the layer groups of ObservedReadyOrderSeeded for a
// model whose parameters are registered forward-layer by forward-layer:
// paramsPerLayer[l] is the parameter count of forward layer l. Gradients are
// derived in reverse layer order.
func BackwardGroups(paramsPerLayer []int) [][]int {
	total := 0
	for _, n := range paramsPerLayer {
		total += n
	}
	var groups [][]int
	idx := total
	for l := len(paramsPerLayer) - 1; l >= 0; l-- {
		n := paramsPerLayer[l]
		idx -= n
		g := make([]int, n)
		for i := 0; i < n; i++ {
			g[i] = idx + i
		}
		groups = append(groups, g)
	}
	return groups
}
