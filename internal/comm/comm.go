// Package comm implements ElasticDDP, the distributed data-parallel
// communication layer of EasyScale.
//
// Gradient synchronization is where the paper locates elastic
// non-determinism: DDP gathers gradients into capacity-bounded buckets whose
// parameter-to-bucket mapping is rebuilt after the first mini-batch from the
// order gradient tensors became ready, and the ring all-reduce adds each
// element's contributions in an order that depends on the chunk layout and
// the number of physical participants. Restarting on different resources
// rebuilds channels and mapping, changing the floating-point addition order —
// bitwise divergence (the D0→D1 gap in Figure 9).
//
// EasyScale's D1 fix is modeled exactly: each EST holds a constant virtual
// communication rank, the bucket mapping is recorded in the on-demand
// checkpoint and reinstated on restart (rebuild disabled), and reduction runs
// over the virtual ring — so the addition order is a pure function of the
// logical world, not the physical one.
package comm

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/tensor"
)

// Plan is a gradient-bucket layout: Buckets[b] lists parameter indices in
// their in-bucket flattening order.
type Plan struct {
	Buckets [][]int
}

// Clone deep-copies the plan.
func (p Plan) Clone() Plan {
	out := Plan{Buckets: make([][]int, len(p.Buckets))}
	for i, b := range p.Buckets {
		out.Buckets[i] = append([]int(nil), b...)
	}
	return out
}

// Equal reports whether two plans are identical.
func (p Plan) Equal(o Plan) bool {
	if len(p.Buckets) != len(o.Buckets) {
		return false
	}
	for i := range p.Buckets {
		if len(p.Buckets[i]) != len(o.Buckets[i]) {
			return false
		}
		for j := range p.Buckets[i] {
			if p.Buckets[i][j] != o.Buckets[i][j] {
				return false
			}
		}
	}
	return true
}

// buildFromOrder packs parameters into buckets of at most capElems elements,
// walking the given order. The buckets are capped windows of one array.
func buildFromOrder(sizes []int, order []int, capElems int) Plan {
	if capElems <= 0 {
		panic("comm: bucket capacity must be positive")
	}
	var plan Plan
	all := make([]int, 0, len(order))
	start, used := 0, 0
	for _, idx := range order {
		if idx < 0 || idx >= len(sizes) {
			panic(fmt.Sprintf("comm: parameter index %d out of range", idx))
		}
		if used > 0 && used+sizes[idx] > capElems {
			plan.Buckets = append(plan.Buckets, all[start:len(all):len(all)])
			start, used = len(all), 0
		}
		all = append(all, idx)
		used += sizes[idx]
	}
	if len(all) > start {
		plan.Buckets = append(plan.Buckets, all[start:len(all):len(all)])
	}
	return plan
}

// BuildInitialPlan packs parameters in reverse registration order (DDP's
// static reversed topological order) into buckets of capElems elements.
func BuildInitialPlan(sizes []int, capElems int) Plan {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = len(sizes) - 1 - i
	}
	return buildFromOrder(sizes, order, capElems)
}

// BuildPlanFromReadyOrder packs parameters in the order their gradients were
// derived during the first mini-batch — DDP's bucket reconstruction.
func BuildPlanFromReadyOrder(sizes []int, readyOrder []int, capElems int) Plan {
	if len(readyOrder) != len(sizes) {
		panic("comm: ready order must cover every parameter")
	}
	seen := make([]bool, len(sizes))
	for _, idx := range readyOrder {
		if idx < 0 || idx >= len(sizes) || seen[idx] {
			panic("comm: ready order is not a permutation")
		}
		seen[idx] = true
	}
	return buildFromOrder(sizes, readyOrder, capElems)
}

// RingReduceInto sums the participants' buffers elementwise into dst (every
// element is overwritten) the way a ring all-reduce does: the buffer is split
// into len(contribs) chunks and the additions for chunk c start at
// participant (c mod P), wrapping around the ring. The result therefore
// depends on the number of participants and on where chunk boundaries fall —
// both change under elasticity.
func RingReduceInto(dst []float32, contribs [][]float32) {
	p := len(contribs)
	if p == 0 {
		return
	}
	l := len(contribs[0])
	if len(dst) != l {
		panic("comm: ring reduce destination length mismatch")
	}
	for _, c := range contribs {
		if len(c) != l {
			panic("comm: ring reduce buffer length mismatch")
		}
	}
	if p == 1 {
		copy(dst, contribs[0])
		return
	}
	chunk := (l + p - 1) / p
	for c := 0; c*chunk < l; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > l {
			hi = l
		}
		start := c % p
		// Accumulate whole-chunk passes in ring order: dst starts as the
		// chunk-start participant's contribution and adds the others one
		// participant at a time. Per element this is exactly the scalar
		// `s = contribs[start][e]; s += contribs[(start+k)%p][e]` sequence —
		// traversal is wider, the per-element addition order is untouched.
		// dst must not alias any contribution (callers pass fresh or pooled
		// scratch), which the element-at-a-time form also required for the
		// chunks where dst overlapped a later-read contribution.
		seg := dst[lo:hi]
		copy(seg, contribs[start][lo:hi])
		for k := 1; k < p; k++ {
			kernels.AddF32(seg, contribs[(start+k)%p][lo:hi])
		}
	}
}

// SequentialReduce sums the participants' buffers strictly in slice order —
// the local gradient-accumulation order a physical worker applies to its own
// ESTs before entering the ring.
func SequentialReduce(contribs [][]float32) []float32 {
	if len(contribs) == 0 {
		return nil
	}
	out := append([]float32(nil), contribs[0]...)
	for _, c := range contribs[1:] {
		if len(c) != len(out) {
			panic("comm: sequential reduce buffer length mismatch")
		}
		kernels.AddF32(out, c)
	}
	return out
}

// ElasticDDP coordinates bucketed gradient all-reduce for one training job.
type ElasticDDP struct {
	Sizes    []int // per-parameter element counts, registration order
	CapElems int   // bucket capacity in elements

	plan           Plan
	rebuilt        bool
	RebuildEnabled bool // D1 disables reconstruction after restore

	contribs [][]float32 // reusable per-participant staging headers
	reduced  [][]float32 // reusable per-bucket result headers

	// tr records flatten/reduce spans when set (nil = tracing off). The
	// tracer only observes timings — it never touches gradient data, so
	// reductions are bitwise identical with and without it.
	tr *obs.Tracer
}

// NewElasticDDP builds the communicator. The static initial plan is built on
// first use, so a restore that reinstates a recorded plan never builds it.
func NewElasticDDP(sizes []int, capElems int) *ElasticDDP {
	return &ElasticDDP{
		Sizes:          append([]int(nil), sizes...),
		CapElems:       capElems,
		RebuildEnabled: true,
	}
}

// SetTracer attaches (nil detaches) an execution tracer recording bucket
// flatten and all-reduce spans on the runtime track.
func (d *ElasticDDP) SetTracer(tr *obs.Tracer) { d.tr = tr }

// Plan returns the current bucket plan (for checkpointing under D1), building
// the initial plan if there is none yet. It is the communicator's own: do not
// modify it.
func (d *ElasticDDP) Plan() Plan {
	if d.plan.Buckets == nil && len(d.Sizes) > 0 {
		d.plan = BuildInitialPlan(d.Sizes, d.CapElems)
	}
	return d.plan
}

// RestorePlan reinstates a recorded plan and disables reconstruction — the
// D1 restart path.
func (d *ElasticDDP) RestorePlan(p Plan) {
	d.plan = p.Clone()
	d.rebuilt = true
	d.RebuildEnabled = false
}

// Rebuilt reports whether the first-iteration reconstruction has happened.
func (d *ElasticDDP) Rebuilt() bool { return d.rebuilt }

// MaybeRebuild performs DDP's after-first-iteration bucket reconstruction
// from the observed gradient ready order. It is a no-op once rebuilt or when
// reconstruction is disabled.
func (d *ElasticDDP) MaybeRebuild(readyOrder []int) {
	if d.rebuilt || !d.RebuildEnabled {
		return
	}
	d.plan = BuildPlanFromReadyOrder(d.Sizes, readyOrder, d.CapElems)
	d.rebuilt = true
}

// flatten packs bucket b of one participant's gradient set into buf.
//
//easyscale:hotpath
func (d *ElasticDDP) flatten(buf []float32, grads []*tensor.Tensor, bucket []int) {
	off := 0
	for _, pi := range bucket {
		copy(buf[off:off+d.Sizes[pi]], grads[pi].Data)
		off += d.Sizes[pi]
	}
}

// ReduceAverage is the one reduce of one gradient bucket: contribs are the
// participants' flattened buffers in ring order, the result is their
// RingReduceInto sum scaled by 1/divisor, in an arena buffer the caller
// pool.Puts when done with it. The in-process step (ReduceBuckets) and the
// distributed leader both average through here, so the two cannot differ in
// a bit.
//
//easyscale:hotpath
func ReduceAverage(contribs [][]float32, divisor int) []float32 {
	avg := pool.GetUninit(len(contribs[0]))
	RingReduceInto(avg, contribs)
	kernels.ScaleF32(avg, 1/float32(divisor))
	return avg
}

// ReduceBuckets averages the participants' gradient sets bucket by bucket and
// returns the averaged buffers in plan order, leaving the sets untouched. Each
// element of gradSets is one ring participant's gradients in registration
// order: at D1 the ESTs by virtual rank, below D1 the physical workers' local
// accumulations. divisor is the logical world size. The buffers are
// arena-backed (pool.Put each when done); the slice is reused by the next call.
func (d *ElasticDDP) ReduceBuckets(gradSets [][]*tensor.Tensor, divisor int) [][]float32 {
	for _, gs := range gradSets {
		if len(gs) != len(d.Sizes) {
			panic("comm: gradient set does not match registered parameters")
		}
	}
	if cap(d.contribs) < len(gradSets) {
		d.contribs = make([][]float32, len(gradSets))
	}
	contribs := d.contribs[:len(gradSets)]
	d.reduced = d.reduced[:0]
	tAll := d.tr.Now()
	for b, bucket := range d.Plan().Buckets {
		blen := d.BucketLen(b)
		tFlat := d.tr.Now()
		for i, gs := range gradSets {
			contribs[i] = pool.GetUninit(blen)
			d.flatten(contribs[i], gs, bucket)
		}
		d.tr.Span(obs.RuntimeTrack, obs.CatComm, "comm.flatten", tFlat, int64(blen), int64(len(gradSets)))
		tRed := d.tr.Now()
		d.reduced = append(d.reduced, ReduceAverage(contribs, divisor))
		for i := range contribs {
			pool.Put(contribs[i])
			contribs[i] = nil
		}
		d.tr.Span(obs.RuntimeTrack, obs.CatComm, "comm.reduce-bucket", tRed, int64(blen), int64(len(gradSets)))
	}
	d.tr.Span(obs.RuntimeTrack, obs.CatComm, "comm.allreduce", tAll, int64(d.NumBuckets()), int64(divisor))
	return d.reduced
}

// AllReduce averages the participants' gradient sets in place: ReduceBuckets,
// then every participant receives the result.
func (d *ElasticDDP) AllReduce(gradSets [][]*tensor.Tensor, divisor int) {
	if len(gradSets) == 0 {
		return
	}
	for b, avg := range d.ReduceBuckets(gradSets, divisor) {
		for _, gs := range gradSets {
			d.UnflattenBucket(b, gs, avg)
		}
		pool.Put(avg)
	}
}
