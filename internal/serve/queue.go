package serve

import (
	"sync"
	"time"

	"repro/internal/dist"
)

// item is one queued predict request plus its reply path and timing.
type item struct {
	req dist.PredictRequest
	// enq is the arrival instant; the batch the item joins must flush by
	// enq+MaxWait at the latest.
	enq time.Time
	// deadline is enq plus the request's own budget (zero budget means the
	// request imposes no flush pressure beyond MaxWait).
	deadline time.Time
	// enqClock is the tracer clock at arrival, for queue-residency spans.
	enqClock int64
	// reply receives exactly one PredictReply (buffered, never blocks the
	// replica).
	reply chan dist.PredictReply
}

// queue is the deployment's shared request queue: every replica of a model
// collects batches from the same queue, so adding a replica is just adding a
// consumer and removing one strands nothing — whatever the departed replica
// did not take stays queued for its peers.
//
// Determinism contract (detlint: serve is ordering-sensitive): items leave
// in arrival order and batches are contiguous prefixes. A parked collect
// wakes for exactly three reasons — batch full, flush deadline reached,
// queue closed — plus the two that arm its flush instant: the first push
// into an empty queue, and a push whose own deadline falls before the
// instant the collector's timer is armed for. Every other push leaves the
// collectors parked, so a batch of n costs O(1) wake-ups, not n.
type queue struct {
	mu      sync.Mutex
	wake    chan struct{} // closed-and-replaced broadcast channel
	waiters int           // collectors parked on the current wake channel
	// what the parked collectors wait for: the depth reaching need (1 on an
	// empty queue, else the batch bound) or a deadline before flushAt
	need    int
	flushAt time.Time
	wakes   int // broadcasts that found waiters; read only by tests
	// items[head:] is the live queue; head advances as batches leave and
	// the dead prefix is reclaimed in place once it dominates, so a collect
	// is O(batch) instead of O(depth) and allocation-free.
	items  []*item
	head   int
	closed bool
}

func newQueue() *queue { return &queue{wake: make(chan struct{})} }

// newFlushTimer returns a stopped timer for collect to re-arm: each
// collector owns one for its lifetime instead of one per wait.
func newFlushTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// broadcast wakes every waiter by closing the current wake channel and
// installing a fresh one. When no collector is parked — the saturated
// steady state, where replicas always find work without waiting — it does
// nothing. Callers must hold the lock.
func (q *queue) broadcast() {
	if q.waiters == 0 {
		return
	}
	q.wakes++
	q.waiters = 0 // everyone parked on the old channel is awake now
	close(q.wake)
	q.wake = make(chan struct{})
}

// push enqueues one item, waking the parked collectors only when the item
// completes what they wait for (see the queue's contract). Returns false
// when the queue is closed (the caller replies with an error instead of
// dropping silently).
func (q *queue) push(it *item) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, it)
	if len(q.items)-q.head >= q.need || (!it.deadline.IsZero() && it.deadline.Before(q.flushAt)) {
		q.broadcast()
	}
	return true
}

// depth reports the current queue length (autoscaler input).
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// isClosed reports whether close has been called.
func (q *queue) isClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// collect blocks until at least one item is queued, then gathers a batch
// into dst: it returns early with maxBatch items when the queue is that
// deep, and otherwise waits on timer, re-armed for the earliest flush
// instant — the first item's arrival plus maxWait, tightened by any queued
// request's own deadline — before taking whatever is there. Returns nil
// when the queue is closed and empty, or when stop fires first (queued
// items are left untouched for the surviving collectors, so aborting a
// collect can never drop a request).
func (q *queue) collect(dst []*item, maxBatch int, maxWait time.Duration, timer *time.Timer, stop <-chan struct{}) []*item {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		n := len(q.items) - q.head
		if n >= maxBatch || (q.closed && n > 0) {
			break
		}
		if q.closed {
			return nil
		}
		var timeout <-chan time.Time
		need, flushAt := 1, time.Time{}
		if n > 0 {
			flushAt = q.items[q.head].enq.Add(maxWait)
			for _, it := range q.items[q.head:] {
				if !it.deadline.IsZero() && it.deadline.Before(flushAt) {
					flushAt = it.deadline
				}
			}
			d := time.Until(flushAt)
			if d <= 0 {
				break
			}
			need = maxBatch
			timer.Reset(d)
			timeout = timer.C
		}
		q.need, q.flushAt = need, flushAt
		q.waiters++
		wake := q.wake
		q.mu.Unlock()
		stopped := false
		select {
		case <-wake:
		case <-timeout:
			timeout = nil
		case <-stop:
			stopped = true
		}
		if timeout != nil && !timer.Stop() {
			// go.mod predates synchronous timer channels: a timer that
			// fired while we woke for another reason holds a stale tick
			select {
			case <-timer.C:
			default:
			}
		}
		q.mu.Lock()
		if q.wake == wake {
			q.waiters-- // no broadcast counted us out
		}
		if stopped {
			return nil
		}
	}
	n := min(len(q.items)-q.head, maxBatch)
	batch := append(dst[:0], q.items[q.head:q.head+n]...)
	clear(q.items[q.head : q.head+n])
	q.head += n
	// the batch is a copy, so the backing array is reused in place
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 1024 && q.head*2 > len(q.items) {
		m := copy(q.items, q.items[q.head:])
		clear(q.items[m:])
		q.items = q.items[:m]
		q.head = 0
	}
	if len(q.items)-q.head >= maxBatch {
		// enough left for another full batch: wake a peer replica
		q.broadcast()
	}
	return batch
}

// drainAll removes and returns every queued item (shutdown path for a
// deployment with no replicas left to answer them).
func (q *queue) drainAll() []*item {
	q.mu.Lock()
	defer q.mu.Unlock()
	items := q.items[q.head:]
	q.items = nil
	q.head = 0
	return items
}

// close marks the queue closed and wakes every collector; already-queued
// items are still drained by collect so shutdown never drops work.
func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		q.broadcast()
	}
}
