// Package obs is the execution-observability layer of the EasyScale
// reproduction: span tracing and monotonic counters behind the training,
// communication, scheduling, and fault-recovery seams, with a Chrome
// trace-event (Perfetto-loadable) exporter and a per-phase text summary.
//
// The design contract, in order of priority:
//
//  1. Tracing is invisible to numerics. A Tracer only ever *reads* program
//     state (and a clock); it never feeds a value back into a kernel, a
//     reduction order, or a scheduling decision. The bitwise params-hash
//     tests assert this with tracing enabled and disabled.
//  2. The enabled hot path is allocation-free. Spans are written into
//     pre-allocated per-track ring buffers; a record is an atomic slot claim
//     plus a struct store. Names must be static strings; variable data goes
//     into the two integer argument slots. The free-form Detail field is for
//     cold paths (scheduler decisions, fault events) only.
//  3. The disabled path is near-free. Every recording entry point is
//     nil-receiver-safe, so instrumentation sites hold a possibly-nil
//     *Tracer and pay one pointer test per event when tracing is off —
//     verified by benchmark and by testing.AllocsPerRun.
//
// Concurrency model: track and counter registration are mutex-guarded cold
// paths; recording is lock-free. Each span record claims a unique ring slot
// with an atomic fetch-add, so concurrent writers (distributed workers, the
// per-GPU goroutines of a training step) never contend on a lock. When a ring
// wraps, the oldest spans are overwritten and counted in Dropped(). Readers
// (exporters) must run at quiescence — after the traced run — which is the
// only time the repo exports traces.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Cat classifies a span for grouping in exports and summaries.
type Cat uint8

// Span categories, one per instrumented seam.
const (
	// CatStep is an EST local step or a global step (core).
	CatStep Cat = iota
	// CatSwitch is an EST context switch in or out (core, Fig. 11).
	CatSwitch
	// CatComm is a bucket flatten or all-reduce round (comm, Fig. 13).
	CatComm
	// CatNet is a networked gather/broadcast/checkpoint exchange (dist).
	CatNet
	// CatSched is a scheduler or placement decision (sched, core).
	CatSched
	// CatFault is a fault injection, crash, or retry event (faults, dist).
	CatFault
	// CatPhase is one elastic resource generation (dist driver).
	CatPhase
	// CatShard is a checkpoint-shard exchange: incremental ship to the
	// coordinator directory, multi-peer fetch, live EST migration (dist).
	CatShard
	// CatServe is an inference-serving event: a predict request's queue
	// residency, a coalesced batch forward, or a flush decision (serve).
	CatServe
	// CatPlane is a control-plane event: a lease mint or retirement, a
	// reservation with its remedies, a cross-team borrow, or a
	// preemption-on-reclaim (controlplane).
	CatPlane
)

// String names the category (these are the "cat" fields of the Chrome
// trace-event export, so Perfetto can filter by them).
func (c Cat) String() string {
	switch c {
	case CatStep:
		return "step"
	case CatSwitch:
		return "switch"
	case CatComm:
		return "comm"
	case CatNet:
		return "net"
	case CatSched:
		return "sched"
	case CatFault:
		return "fault"
	case CatPhase:
		return "phase"
	case CatShard:
		return "shard"
	case CatServe:
		return "serve"
	case CatPlane:
		return "plane"
	}
	return fmt.Sprintf("cat(%d)", uint8(c))
}

// Clock is the tracer's time source, in nanoseconds from an arbitrary
// epoch. Implementations must be safe for concurrent use.
type Clock interface {
	Now() int64
}

// wallClock reads the OS monotonic clock relative to tracer creation.
// Wall-clock reads are sanctioned for this package by detlint's walltime
// allow-list: span timestamps are measurement-only and never feed back into
// a numeric or scheduling decision.
type wallClock struct{ t0 time.Time }

func (w wallClock) Now() int64 { return int64(time.Since(w.t0)) }

// FixedClock is a deterministic clock: every Now() advances by Step
// nanoseconds (default 1000 ns = 1 µs, so exported microsecond timestamps
// are integral). It makes a single-goroutine traced run — and therefore its
// Perfetto export — a pure function of the instrumentation call sequence,
// which is what the golden-file test pins.
type FixedClock struct {
	// Step is the advance per Now() call in nanoseconds; 0 means 1000.
	Step int64
	t    atomic.Int64
}

// Now implements Clock.
func (c *FixedClock) Now() int64 {
	step := c.Step
	if step == 0 {
		step = 1000
	}
	return c.t.Add(step)
}

// Span is one recorded interval (Dur > 0) or instant (Dur == 0) on a track.
type Span struct {
	Name   string
	Detail string // cold-path annotation; empty on hot paths
	Cat    Cat
	Track  int32
	Start  int64 // ns, tracer clock
	Dur    int64 // ns
	A0, A1 int64 // generic numeric arguments (step index, bytes, ...)
}

// ring is one track's pre-allocated span buffer. next counts total records;
// the slot for record i is i mod len(spans), so overflow overwrites oldest.
type ring struct {
	spans []Span
	next  atomic.Uint64
}

// Counter is a named monotonic counter. All methods are nil-receiver-safe
// so disabled instrumentation sites can hold and bump a nil *Counter.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Name returns the counter's registered name ("" on nil).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// RuntimeTrack is the pre-registered track id shared by process-wide
// runtime instrumentation (communication rounds) that has no natural
// per-EST or per-worker home.
const RuntimeTrack = 0

// DefaultRingCap is the per-track span capacity when WithRingCap is not
// given: 64 B/span × 8192 = 512 KiB per track, allocated once at track
// registration.
const DefaultRingCap = 8192

// Tracer collects spans and counters for one traced run.
type Tracer struct {
	clock   Clock
	ringCap int

	mu         sync.Mutex // registration (cold) only
	trackNames []string
	rings      atomic.Pointer[[]*ring]
	counters   map[string]*Counter
	ctrNames   []string // registration order

	dropped atomic.Int64
}

// TracerOption configures New.
type TracerOption func(*Tracer)

// WithClock replaces the default wall clock (use a *FixedClock for
// deterministic exports).
func WithClock(c Clock) TracerOption { return func(t *Tracer) { t.clock = c } }

// WithRingCap sets the per-track span capacity (minimum 16).
func WithRingCap(n int) TracerOption {
	return func(t *Tracer) {
		if n < 16 {
			n = 16
		}
		t.ringCap = n
	}
}

// New builds a tracer. Track RuntimeTrack ("runtime") is pre-registered.
func New(opts ...TracerOption) *Tracer {
	t := &Tracer{
		clock:    wallClock{t0: time.Now()},
		ringCap:  DefaultRingCap,
		counters: map[string]*Counter{},
	}
	for _, o := range opts {
		o(t)
	}
	empty := []*ring{}
	t.rings.Store(&empty)
	t.Track("runtime") // == RuntimeTrack
	return t
}

// Now reads the tracer clock (0 on a nil tracer).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.clock.Now()
}

// Track registers (or finds, by name) a track and returns its id. Tracks
// are the rows of the exported trace: one per EST virtual rank, one per
// distributed worker, plus "runtime", "sched", and driver tracks.
// Registration is a mutex-guarded cold path; -1 is returned on nil.
func (t *Tracer) Track(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, n := range t.trackNames {
		if n == name {
			return i
		}
	}
	t.trackNames = append(t.trackNames, name)
	old := *t.rings.Load()
	next := make([]*ring, len(old)+1)
	copy(next, old)
	next[len(old)] = &ring{spans: make([]Span, t.ringCap)}
	t.rings.Store(&next)
	return len(next) - 1
}

// TrackNames returns the registered track names in id order.
func (t *Tracer) TrackNames() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.trackNames...)
}

// record claims a slot on track's ring and stores the span. Lock-free and
// allocation-free; concurrent writers get distinct slots from the fetch-add.
func (t *Tracer) record(track int, s Span) {
	rings := *t.rings.Load()
	if track < 0 || track >= len(rings) {
		return
	}
	r := rings[track]
	i := r.next.Add(1) - 1
	n := uint64(len(r.spans))
	if i >= n {
		t.dropped.Add(1)
	}
	s.Track = int32(track)
	r.spans[i%n] = s
}

// Span records an interval that started at start (a prior t.Now() read) and
// ends now. name must be a static string on hot paths; a0/a1 carry numeric
// arguments. No-op on a nil tracer or an unregistered track.
func (t *Tracer) Span(track int, cat Cat, name string, start, a0, a1 int64) {
	if t == nil {
		return
	}
	end := t.clock.Now()
	t.record(track, Span{Name: name, Cat: cat, Start: start, Dur: end - start, A0: a0, A1: a1})
}

// Instant records a zero-duration event at the current clock reading.
func (t *Tracer) Instant(track int, cat Cat, name string, a0, a1 int64) {
	if t == nil {
		return
	}
	t.record(track, Span{Name: name, Cat: cat, Start: t.clock.Now(), A0: a0, A1: a1})
}

// Event records an instant with a free-form detail string — the structured
// decision-log entry point for cold paths (scheduler placements, fault
// injections, retries). Building detail may allocate; do not call Event
// from per-kernel or per-step hot paths.
func (t *Tracer) Event(track int, cat Cat, name, detail string, a0, a1 int64) {
	if t == nil {
		return
	}
	t.record(track, Span{Name: name, Detail: detail, Cat: cat, Start: t.clock.Now(), A0: a0, A1: a1})
}

// Counter registers (or finds, by name) a monotonic counter. Cold path;
// returns nil on a nil tracer (nil Counters accept Add calls).
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	t.counters[name] = c
	t.ctrNames = append(t.ctrNames, name)
	return c
}

// Counters returns the registered counters in registration order.
func (t *Tracer) Counters() []*Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Counter, len(t.ctrNames))
	for i, n := range t.ctrNames {
		out[i] = t.counters[n]
	}
	return out
}

// Dropped returns how many spans were overwritten by ring wrap-around.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Spans returns a snapshot of every track's spans, indexed by track id, each
// track oldest-first. Call only at quiescence (no concurrent writers); the
// result order is deterministic for a deterministic recording sequence.
func (t *Tracer) Spans() [][]Span {
	if t == nil {
		return nil
	}
	rings := *t.rings.Load()
	out := make([][]Span, len(rings))
	for ti, r := range rings {
		written := r.next.Load()
		n := uint64(len(r.spans))
		if written <= n {
			out[ti] = append([]Span(nil), r.spans[:written]...)
			continue
		}
		// wrapped: oldest surviving span is at written mod n
		spans := make([]Span, 0, n)
		start := written % n
		spans = append(spans, r.spans[start:]...)
		spans = append(spans, r.spans[:start]...)
		out[ti] = spans
	}
	return out
}
