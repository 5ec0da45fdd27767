// Package serve is the elastic inference-serving runtime: the other half of
// the paper's production story, where GPUs freed by elastic training (and
// reclaimed from it) run online model serving with a diurnal load curve
// (Figures 1 and 16).
//
// The core mechanism is deadline-aware dynamic batching. Each deployment
// owns one queue of predict requests that all its replicas collect from; a
// replica coalesces whatever is queued into one forward pass, flushing when
// the batch reaches MaxBatch or when the earliest deadline in the queue
// would otherwise be missed. A parked replica is woken only when a batch is
// due — the queue fills a batch, a push carries a deadline earlier than the
// replica's flush timer, the queue closes — or when the first push into an
// empty queue arms that timer, so a batch costs O(1) wake-ups however many
// requests it holds. Batching multiplies throughput on the tiled GEMM path
// — the batch dimension simply becomes M — at bounded latency cost.
//
// Why coalescing is safe: the serving counterpart of EasyScale's EST
// numerics contract. Every output row of a forward pass depends only on the
// corresponding input row and the parameters; the per-element accumulation
// order inside the GEMM kernels is a function of K (the reduction dim) and
// never of M (the batch dim). A request's output is therefore bitwise
// identical whether it runs alone or coalesced with any batchmates, on any
// ISA — proven by differential test and fuzzer (TestBatchedBitwiseEqual,
// FuzzBatchEquivalence) across every available micro-kernel. That guarantee
// is what lets the autoscaler resize and re-route freely: no placement or
// batching decision can ever change a prediction.
//
// Replica scaling has no drain downtime: adding a replica just adds a
// consumer of the deployment's queue; removing one re-queues whatever the
// departing replica held, so in-flight requests complete rather than drop.
// The autoscaler (PlanReplicas) follows the greedy saturation policy of
// GPU-limiter-style schedulers: deployments sorted by saturation get
// replicas first, partial allocation under a capacity constraint, and
// scale-to-zero for models that stay idle.
package serve

import "time"

// Options configures a Server.
type Options struct {
	// MaxBatch bounds the number of requests coalesced into one forward
	// pass (and is the per-replica capacity unit the autoscaler plans in).
	MaxBatch int
	// MaxWait bounds how long the first request of a batch may sit queued
	// before the batch flushes regardless of size. A request with an
	// explicit deadline budget shorter than MaxWait tightens the flush
	// further.
	MaxWait time.Duration
	// Capacity is the total replica budget across all deployments; 0 means
	// unlimited (the autoscaler never has to arbitrate).
	Capacity int
	// IdleTicks is how many consecutive idle autoscale rounds a deployment
	// survives before scaling to zero; 0 disables scale-to-zero.
	IdleTicks int
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 2 * time.Millisecond
	}
	return o
}
