package comm

import (
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/tensor"
)

// Bucket-level accessors used by the distributed runtime: a remote worker
// flattens its local ESTs' gradients per bucket, ships buffers through the
// ring, and unflattens the reduced result.

// NumBuckets returns the bucket count of the current plan.
func (d *ElasticDDP) NumBuckets() int { return len(d.Plan().Buckets) }

// BucketLen returns the element count of bucket b.
func (d *ElasticDDP) BucketLen(b int) int {
	n := 0
	for _, pi := range d.Plan().Buckets[b] {
		n += d.Sizes[pi]
	}
	return n
}

// FlattenBucket packs bucket b of one gradient set into a buffer drawn from
// the arena (fully overwritten). Callers on per-step paths should pool.Put
// the buffer once the reduce is done with it; holding or dropping it is also
// safe, merely unpooled.
//
//easyscale:hotpath
func (d *ElasticDDP) FlattenBucket(b int, grads []*tensor.Tensor) []float32 {
	bucket := d.Plan().Buckets[b]
	start := d.tr.Now()
	buf := pool.GetUninit(d.BucketLen(b))
	d.flatten(buf, grads, bucket)
	d.tr.Span(obs.RuntimeTrack, obs.CatComm, "comm.flatten", start, int64(len(buf)), int64(b))
	return buf
}

// UnflattenBucket scatters a reduced bucket buffer back into a gradient set.
//
//easyscale:hotpath
func (d *ElasticDDP) UnflattenBucket(b int, grads []*tensor.Tensor, buf []float32) {
	off := 0
	for _, pi := range d.Plan().Buckets[b] {
		copy(grads[pi].Data, buf[off:off+d.Sizes[pi]])
		off += d.Sizes[pi]
	}
}

// RingChunks returns the chunk boundaries RingReduceInto uses for a buffer of
// length l among p participants, as (lo, hi) pairs in chunk order. The
// distributed ring all-reduce must follow exactly these boundaries (and the
// (c mod p) rotation) to be bitwise identical to the in-process reduction.
func RingChunks(l, p int) [][2]int {
	if p <= 0 {
		return nil
	}
	if p == 1 {
		return [][2]int{{0, l}}
	}
	chunk := (l + p - 1) / p
	var out [][2]int
	for c := 0; c*chunk < l; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > l {
			hi = l
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
