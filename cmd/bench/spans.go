package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// The benchmark's own spans: one around every call it makes into a layer
// while tracing is on. They are kept in memory and written once, at exit, as
// Chrome trace-event JSON. Untraced runs pass a nil *lane, whose methods do
// nothing, so the measured loops are the same code either way.

// span is one timed call. parent is the id of the span that caused it (-1
// for a root) and op identifies the benchmark operation it belongs to.
type span struct {
	name       string
	start, end int64 // ns since the recorder started
	parent, op int
}

// recorder owns the lanes of one traced run.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	lanes []*lane
}

// lane is the span list of one goroutine; only that goroutine appends to it.
type lane struct {
	rec   *recorder
	id    int
	name  string
	spans []span
}

// maxLaneSpans keeps ids of different lanes apart: a span's id is
// lane*maxLaneSpans + index, and a lane that fills up stops recording.
const maxLaneSpans = 1 << 20

func newRecorder() *recorder { return &recorder{t0: now()} }

// lane adds a named lane; a nil recorder (tracing off) gives a nil lane.
func (r *recorder) lane(name string) *lane {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l := &lane{rec: r, id: len(r.lanes), name: name}
	r.lanes = append(r.lanes, l)
	return l
}

// open starts a span and returns its id, to be passed to close and used as
// the parent of the calls made inside it.
func (l *lane) open(name string, parent, op int) int {
	if l == nil || len(l.spans) >= maxLaneSpans {
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: int64(since(l.rec.t0)), parent: parent, op: op})
	return l.id*maxLaneSpans + len(l.spans) - 1
}

// close ends the span open returned.
func (l *lane) close(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id-l.id*maxLaneSpans].end = int64(since(l.rec.t0))
}

// count is the number of spans recorded so far.
func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, l := range r.lanes {
		n += len(l.spans)
	}
	return n
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes every lane as one thread of a Chrome trace: an "M"
// thread_name event per lane, an "X" event per span with its id, parent and
// op in args. Call after every traced goroutine has finished.
func (r *recorder) writeChromeTrace(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	events := make([]traceEvent, 0, 1+len(r.lanes))
	events = append(events, traceEvent{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "cmd/bench"}})
	for _, l := range r.lanes {
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: l.id, Args: map[string]any{"name": l.name}})
		for i, s := range l.spans {
			if s.end < s.start {
				continue // never closed: the call failed before its end was recorded
			}
			events = append(events, traceEvent{
				Name: s.name, Ph: "X", PID: 1, TID: l.id,
				TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Args: map[string]any{"id": l.id*maxLaneSpans + i, "parent": s.parent, "op": s.op},
			})
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"})
}
