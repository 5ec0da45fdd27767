package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestNilTracerSafe: every recording entry point must be a no-op on a nil
// tracer — this is the disabled path every instrumentation site relies on.
func TestNilTracerSafe(t *testing.T) {
	var tr *obs.Tracer
	if tr.Now() != 0 {
		t.Fatal("nil Now")
	}
	if id := tr.Track("x"); id != -1 {
		t.Fatalf("nil Track = %d, want -1", id)
	}
	tr.Span(0, obs.CatStep, "s", 0, 1, 2)
	tr.Instant(0, obs.CatStep, "i", 1, 2)
	tr.Event(0, obs.CatSched, "e", "detail", 1, 2)
	if c := tr.Counter("c"); c != nil {
		t.Fatal("nil tracer must return a nil counter")
	}
	var c *obs.Counter
	c.Add(5) // must not panic
	if c.Value() != 0 || c.Name() != "" {
		t.Fatal("nil counter accessors")
	}
	if tr.Spans() != nil || tr.TrackNames() != nil || tr.Counters() != nil {
		t.Fatal("nil tracer accessors must return nil")
	}
	if tr.Dropped() != 0 {
		t.Fatal("nil Dropped")
	}
	if !strings.Contains(tr.Summary(), "disabled") {
		t.Fatal("nil Summary should say tracing is disabled")
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("nil WriteChromeTrace must error")
	}
}

// TestTrackRegistration: RuntimeTrack is pre-registered, registration is
// idempotent by name, and ids are dense in registration order.
func TestTrackRegistration(t *testing.T) {
	tr := obs.New()
	if got := tr.Track("runtime"); got != obs.RuntimeTrack {
		t.Fatalf("runtime track = %d, want %d", got, obs.RuntimeTrack)
	}
	a := tr.Track("est-0")
	b := tr.Track("est-1")
	if a != 1 || b != 2 {
		t.Fatalf("track ids %d, %d; want 1, 2", a, b)
	}
	if again := tr.Track("est-0"); again != a {
		t.Fatalf("re-registration returned %d, want %d", again, a)
	}
	names := tr.TrackNames()
	want := []string{"runtime", "est-0", "est-1"}
	if len(names) != len(want) {
		t.Fatalf("names %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names %v, want %v", names, want)
		}
	}
}

// TestSpansOrderAndFields: spans come back oldest-first with the recorded
// fields intact, and instants have zero duration.
func TestSpansOrderAndFields(t *testing.T) {
	clk := &obs.FixedClock{}
	tr := obs.New(obs.WithClock(clk))
	tk := tr.Track("t")
	start := tr.Now()
	tr.Span(tk, obs.CatComm, "first", start, 10, 20)
	tr.Instant(tk, obs.CatFault, "second", 30, 40)
	tr.Event(tk, obs.CatSched, "third", "why", 50, 60)

	spans := tr.Spans()[tk]
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	s := spans[0]
	if s.Name != "first" || s.Cat != obs.CatComm || s.Start != start || s.Dur != 1000 || s.A0 != 10 || s.A1 != 20 {
		t.Fatalf("span 0 = %+v", s)
	}
	if spans[1].Name != "second" || spans[1].Dur != 0 {
		t.Fatalf("span 1 = %+v", spans[1])
	}
	if spans[2].Name != "third" || spans[2].Detail != "why" {
		t.Fatalf("span 2 = %+v", spans[2])
	}
	// recording on an unregistered track id is silently dropped, not a panic
	tr.Span(99, obs.CatStep, "lost", 0, 0, 0)
	tr.Span(-5, obs.CatStep, "lost", 0, 0, 0)
}

// TestRingWrap: overflowing a ring keeps the newest spans oldest-first and
// counts the overwritten ones in Dropped.
func TestRingWrap(t *testing.T) {
	tr := obs.New(obs.WithRingCap(16)) // 16 is the enforced minimum
	tk := tr.Track("t")
	for i := 0; i < 40; i++ {
		tr.Instant(tk, obs.CatStep, "e", int64(i), 0)
	}
	spans := tr.Spans()[tk]
	if len(spans) != 16 {
		t.Fatalf("got %d spans after wrap, want 16", len(spans))
	}
	for i, s := range spans {
		if want := int64(40 - 16 + i); s.A0 != want {
			t.Fatalf("span %d has A0=%d, want %d (oldest-first after wrap)", i, s.A0, want)
		}
	}
	if d := tr.Dropped(); d != 40-16 {
		t.Fatalf("Dropped = %d, want %d", d, 40-16)
	}
	if strings.Contains(tr.Summary(), "dropped") == false {
		t.Fatal("Summary should report the ring overflow")
	}
}

// TestRingCapMinimum: WithRingCap clamps tiny capacities up to 16.
func TestRingCapMinimum(t *testing.T) {
	tr := obs.New(obs.WithRingCap(1))
	tk := tr.Track("t")
	for i := 0; i < 16; i++ {
		tr.Instant(tk, obs.CatStep, "e", int64(i), 0)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("16 spans must fit the minimum ring, dropped %d", d)
	}
}

// TestCounters: registration is idempotent by name, Add accumulates, and
// Counters preserves registration order.
func TestCounters(t *testing.T) {
	tr := obs.New()
	a := tr.Counter("steps")
	b := tr.Counter("switches")
	if tr.Counter("steps") != a {
		t.Fatal("counter registration must be idempotent")
	}
	a.Add(3)
	a.Add(4)
	b.Add(1)
	if a.Value() != 7 || b.Value() != 1 {
		t.Fatalf("values %d, %d", a.Value(), b.Value())
	}
	ctrs := tr.Counters()
	if len(ctrs) != 2 || ctrs[0].Name() != "steps" || ctrs[1].Name() != "switches" {
		t.Fatalf("counters %v", ctrs)
	}
}

// TestFixedClockDeterministic: a FixedClock advances by Step per read, so two
// identical recording sequences export byte-identical traces.
func TestFixedClockDeterministic(t *testing.T) {
	run := func() []byte {
		tr := obs.New(obs.WithClock(&obs.FixedClock{Step: 500}))
		tk := tr.Track("t")
		for i := 0; i < 5; i++ {
			start := tr.Now()
			tr.Span(tk, obs.CatComm, "k", start, int64(i), 0)
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("identical recording sequences must export identical bytes")
	}
}

// TestChromeExportRoundTrip: an export of spans, instants, events, and
// counters passes the schema checker and contains the expected structure.
func TestChromeExportRoundTrip(t *testing.T) {
	tr := obs.New(obs.WithClock(&obs.FixedClock{}))
	tk := tr.Track("est-0")
	start := tr.Now()
	tr.Span(tk, obs.CatStep, "core.local-step", start, 1, 2)
	tr.Event(tr.Track("sched"), obs.CatSched, "sched.apply", "job=j res=V100:2", 2, 4)
	tr.Counter("core.global-steps").Add(9)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("export failed its own schema check: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`"name": "easyscale"`,          // process_name metadata
		`"name": "est-0"`,              // thread_name metadata
		`"core.local-step"`,            // the span
		`"detail": "job=j res=V100:2"`, // decision-log payload
		`"core.global-steps"`,          // the counter
		`"displayTimeUnit": "ms"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %s:\n%s", want, out)
		}
	}
}

// TestCheckChromeTraceRejects: the schema checker catches the failure modes
// tracecheck exists for.
func TestCheckChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":         `{"traceEvents": [`,
		"no events":        `{"traceEvents": []}`,
		"unnamed event":    `{"traceEvents": [{"ph": "X", "ts": 0, "dur": 1}]}`,
		"missing phase":    `{"traceEvents": [{"name": "a"}]}`,
		"unknown phase":    `{"traceEvents": [{"name": "a", "ph": "Z"}]}`,
		"negative ts":      `{"traceEvents": [{"name": "a", "ph": "X", "ts": -1, "dur": 1}]}`,
		"span missing dur": `{"traceEvents": [{"name": "a", "ph": "X", "ts": 0}]}`,
		"no named track":   `{"traceEvents": [{"name": "a", "ph": "X", "ts": 0, "dur": 1}]}`,
		"no spans": `{"traceEvents": [
			{"name": "thread_name", "ph": "M", "args": {"name": "t"}},
			{"name": "a", "ph": "i"}]}`,
	}
	for name, data := range cases {
		if err := obs.CheckChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: expected a schema error", name)
		}
	}
}

// TestSummary: the text summary groups spans by (category, name) with counts
// and lists counters.
func TestSummary(t *testing.T) {
	tr := obs.New(obs.WithClock(&obs.FixedClock{}))
	tk := tr.Track("t")
	for i := 0; i < 3; i++ {
		start := tr.Now()
		tr.Span(tk, obs.CatComm, "comm.allreduce", start, 0, 0)
	}
	tr.Counter("core.ctx-switches").Add(12)
	sum := tr.Summary()
	if !strings.Contains(sum, "comm.allreduce") || !strings.Contains(sum, "core.ctx-switches") {
		t.Fatalf("summary missing groups:\n%s", sum)
	}
	var count int
	for _, line := range strings.Split(sum, "\n") {
		if strings.Contains(line, "comm.allreduce") {
			fields := strings.Fields(line)
			// cat, span, count, total, mean, p50, p99
			if len(fields) >= 3 && fields[2] == "3" {
				count = 3
			}
		}
	}
	if count != 3 {
		t.Fatalf("summary should count 3 allreduce spans:\n%s", sum)
	}
}

// TestDisabledPathAllocFree: the nil-tracer path — what every hot-path
// instrumentation site pays when tracing is off — must not allocate.
func TestDisabledPathAllocFree(t *testing.T) {
	var tr *obs.Tracer
	var c *obs.Counter
	avg := testing.AllocsPerRun(1000, func() {
		start := tr.Now()
		tr.Span(obs.RuntimeTrack, obs.CatComm, "kernels.dispatch", start, 1, 2)
		tr.Instant(0, obs.CatStep, "i", 0, 0)
		c.Add(1)
	})
	if avg != 0 {
		t.Fatalf("disabled path allocates %.1f/op, want 0", avg)
	}
}

// TestEnabledPathAllocFree: the enabled hot path (static name, integer args)
// records into pre-allocated rings without allocating, even across a wrap.
func TestEnabledPathAllocFree(t *testing.T) {
	tr := obs.New(obs.WithRingCap(64))
	tk := tr.Track("t")
	c := tr.Counter("c")
	avg := testing.AllocsPerRun(1000, func() {
		start := tr.Now()
		tr.Span(tk, obs.CatComm, "kernels.dispatch", start, 1, 2)
		c.Add(1)
	})
	if avg != 0 {
		t.Fatalf("enabled hot path allocates %.1f/op, want 0", avg)
	}
}

// BenchmarkSpanDisabled measures the cost instrumentation sites pay when
// tracing is off: a nil test per event.
func BenchmarkSpanDisabled(b *testing.B) {
	var tr *obs.Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		start := tr.Now()
		tr.Span(obs.RuntimeTrack, obs.CatComm, "kernels.dispatch", start, int64(i), 0)
	}
}

// BenchmarkSpanEnabled measures the enabled hot path: two clock reads, an
// atomic slot claim, and a struct store.
func BenchmarkSpanEnabled(b *testing.B) {
	tr := obs.New()
	tk := tr.Track("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := tr.Now()
		tr.Span(tk, obs.CatComm, "kernels.dispatch", start, int64(i), 0)
	}
}

// BenchmarkSpanEnabledParallel exercises the lock-free concurrent-writer
// claim path from many goroutines on one track.
func BenchmarkSpanEnabledParallel(b *testing.B) {
	tr := obs.New()
	tk := tr.Track("bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			start := tr.Now()
			tr.Span(tk, obs.CatComm, "kernels.dispatch", start, 1, 2)
		}
	})
}
