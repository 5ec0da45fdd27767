package serve

import (
	"testing"
	"time"

	"repro/internal/dist"
)

func qItem(id uint64, budget time.Duration) *item {
	it := &item{
		req:   dist.PredictRequest{ID: id, Input: []float32{1}},
		enq:   time.Now(),
		reply: make(chan dist.PredictReply, 1),
	}
	if budget > 0 {
		it.deadline = it.enq.Add(budget)
	}
	return it
}

var never = make(chan struct{})

// take runs one collect with a fresh batch slice and flush timer.
func (q *queue) take(maxBatch int, maxWait time.Duration, stop <-chan struct{}) []*item {
	return q.collect(nil, maxBatch, maxWait, newFlushTimer(), stop)
}

// waitParked blocks until n collectors are parked on q.
func waitParked(t *testing.T, q *queue, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		q.mu.Lock()
		w := q.waiters
		q.mu.Unlock()
		if w >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d collectors parked after 10s, want %d", w, n)
		}
	}
}

func TestQueueBatchFullFlush(t *testing.T) {
	q := newQueue()
	for i := 1; i <= 5; i++ {
		q.push(qItem(uint64(i), 0))
	}
	batch := q.take(3, time.Hour, never)
	if len(batch) != 3 {
		t.Fatalf("batch size %d, want 3", len(batch))
	}
	// arrival order, contiguous prefix
	for i, it := range batch {
		if it.req.ID != uint64(i+1) {
			t.Fatalf("batch[%d] = request %d, want %d (arrival order)", i, it.req.ID, i+1)
		}
	}
	if d := q.depth(); d != 2 {
		t.Fatalf("queue depth %d after collect, want 2", d)
	}
}

func TestQueueTimeoutFlush(t *testing.T) {
	q := newQueue()
	q.push(qItem(1, 0))
	start := time.Now()
	batch := q.take(16, 5*time.Millisecond, never)
	if len(batch) != 1 {
		t.Fatalf("batch size %d, want 1", len(batch))
	}
	if e := time.Since(start); e > 500*time.Millisecond {
		t.Fatalf("maxWait flush took %v", e)
	}
}

func TestQueueDeadlineTightensFlush(t *testing.T) {
	q := newQueue()
	q.push(qItem(1, time.Millisecond)) // request's own budget ≪ maxWait
	start := time.Now()
	batch := q.take(16, 10*time.Second, never)
	if len(batch) != 1 {
		t.Fatalf("batch size %d, want 1", len(batch))
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("deadline flush took %v (maxWait was 10s)", e)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := newQueue()
	q.push(qItem(1, 0))
	q.push(qItem(2, 0))
	q.close()
	if q.push(qItem(3, 0)) {
		t.Fatal("push after close must fail")
	}
	batch := q.take(16, time.Hour, never)
	if len(batch) != 2 {
		t.Fatalf("closed queue drained %d items, want 2", len(batch))
	}
	if q.take(16, time.Hour, never) != nil {
		t.Fatal("empty closed queue must return nil")
	}
}

func TestQueueStopAbandonsWithoutTaking(t *testing.T) {
	q := newQueue()
	stop := make(chan struct{})
	done := make(chan []*item, 1)
	go func() { done <- q.take(16, time.Hour, stop) }()
	time.Sleep(2 * time.Millisecond)
	close(stop)
	if batch := <-done; batch != nil {
		t.Fatalf("stopped collect returned %d items", len(batch))
	}
	// an item pushed before or after the abort survives for other collectors
	q.push(qItem(7, 0))
	batch := q.take(16, time.Millisecond, never)
	if len(batch) != 1 || batch[0].req.ID != 7 {
		t.Fatal("aborted collect lost a queued item")
	}
}

// TestQueueWakesSecondCollector: two collectors parked on one queue, with a
// flush instant too far away to rescue a missed wake, must each be woken
// for a full batch — the depth-reaches-need wake and the "a full batch is
// left after a take" wake between them lose no item.
func TestQueueWakesSecondCollector(t *testing.T) {
	q := newQueue()
	got := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() { got <- len(q.take(2, time.Hour, never)) }()
	}
	waitParked(t, q, 2)
	for i := 1; i <= 4; i++ {
		q.push(qItem(uint64(i), 0))
	}
	total := 0
	for i := 0; i < 2; i++ {
		select {
		case n := <-got:
			if n != 2 {
				t.Fatalf("a collector took %d items, want a full batch of 2", n)
			}
			total += n
		case <-time.After(10 * time.Second):
			t.Fatalf("collectors took %d of 4 items; the rest wait for an hour-long flush", total)
		}
	}
}

// TestQueuePushedDeadlineRearmsFlush: a collector parked on a partial batch
// under a 10 s maxWait must flush promptly when a later push carries its own
// 1 ms budget — the push re-arms the collector's timer.
func TestQueuePushedDeadlineRearmsFlush(t *testing.T) {
	q := newQueue()
	q.push(qItem(1, 0))
	done := make(chan []*item, 1)
	go func() { done <- q.take(16, 10*time.Second, never) }()
	waitParked(t, q, 1)
	start := time.Now()
	q.push(qItem(2, time.Millisecond))
	select {
	case batch := <-done:
		if len(batch) != 2 {
			t.Fatalf("batch size %d, want 2", len(batch))
		}
		if e := time.Since(start); e > 2*time.Second {
			t.Fatalf("deadline flush took %v (maxWait was 10s)", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the pushed 1 ms budget did not re-arm the parked collector's flush")
	}
}

// TestQueueWakesOncePerBatch: pushes that leave the batch short of full
// and carry no earlier deadline leave the collector parked. Filling a batch
// of 16 wakes it for the first push (to arm its flush instant) and for the
// sixteenth (batch full): at most twice, however the pushes interleave.
func TestQueueWakesOncePerBatch(t *testing.T) {
	q := newQueue()
	done := make(chan []*item, 1)
	go func() { done <- q.take(16, time.Hour, never) }()
	for i := 1; i <= 16; i++ {
		waitParked(t, q, 1) // push only at a parked collector
		q.push(qItem(uint64(i), 0))
	}
	if batch := <-done; len(batch) != 16 {
		t.Fatalf("batch size %d, want 16", len(batch))
	}
	q.mu.Lock()
	wakes := q.wakes
	q.mu.Unlock()
	if wakes > 2 {
		t.Fatalf("filling a batch of 16 woke the collector %d times, want at most 2", wakes)
	}
}
