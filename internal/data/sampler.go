package data

import (
	"fmt"

	"repro/internal/rng"
)

// ElasticSampler is EasyScale's distributed data sampler. It partitions each
// epoch's shuffled index sequence across the job's logical workers (ESTs) by
// pure arithmetic on (epoch, step, rank): the assignment depends only on the
// *logical* world size, never on the physical GPU placement, which is what
// lets training move between 4 GPUs, 2 GPUs, or a heterogeneous mix without
// changing a single sample assignment.
//
// Epoch shuffling matches DistributedSampler semantics: a permutation seeded
// by (seed, epoch). The trailing items that do not fill a complete global
// step are dropped (drop_last), as the paper's DDP baselines do.
type ElasticSampler struct {
	N     int    // dataset size
	World int    // number of logical workers (ESTs)
	Batch int    // per-EST mini-batch size
	Seed  uint64 // job-level data seed

	permEpoch int
	perm      []int
	// prev is the permutation before perm: the next epoch's is shuffled
	// into it, so a view of the last epoch outlives one epoch change.
	prev []int
}

// NewElasticSampler validates the geometry and builds the sampler.
func NewElasticSampler(n, world, batch int, seed uint64) *ElasticSampler {
	if n <= 0 || world <= 0 || batch <= 0 {
		panic(fmt.Sprintf("data: bad sampler geometry n=%d world=%d batch=%d", n, world, batch))
	}
	if n < world*batch {
		panic(fmt.Sprintf("data: dataset size %d below one global step (%d×%d)", n, world, batch))
	}
	return &ElasticSampler{N: n, World: world, Batch: batch, Seed: seed, permEpoch: -1}
}

// StepsPerEpoch returns the number of global steps per epoch.
func (s *ElasticSampler) StepsPerEpoch() int { return s.N / (s.World * s.Batch) }

// permutation returns the cached epoch permutation. A new epoch's is the
// identity shuffled by the epoch's stream, built in the older of the two
// buffers.
func (s *ElasticSampler) permutation(epoch int) []int {
	if s.permEpoch != epoch {
		s.perm, s.prev = s.prev, s.perm
		if len(s.perm) != s.N {
			s.perm = make([]int, s.N)
		}
		for i := range s.perm {
			s.perm[i] = i
		}
		st := rng.Indexed(s.Seed, "sampler-epoch-", epoch)
		st.ShuffleInts(s.perm)
		s.permEpoch = epoch
	}
	return s.perm
}

// Prime materializes the epoch's permutation cache so subsequent Indices
// calls are read-only — required before concurrent use. Loader.SetEpoch and
// Loader.Restore call it for the epoch they install.
func (s *ElasticSampler) Prime(epoch int) { s.permutation(epoch) }

// Indices returns the dataset indices of EST `rank` at global step `step` of
// `epoch`. The result is a pure function of its arguments. It is a read-only
// view of the cached epoch permutation, valid until the permutations of two
// other epochs have been built: callers must not write through it, and its
// capacity is clipped, so appending to it copies.
func (s *ElasticSampler) Indices(epoch, step, rank int) []int {
	if rank < 0 || rank >= s.World {
		panic(fmt.Sprintf("data: rank %d out of world %d", rank, s.World))
	}
	if step < 0 || step >= s.StepsPerEpoch() {
		panic(fmt.Sprintf("data: step %d out of epoch (%d steps)", step, s.StepsPerEpoch()))
	}
	perm := s.permutation(epoch)
	base := step*s.World*s.Batch + rank*s.Batch
	return perm[base : base+s.Batch : base+s.Batch]
}
