package serve

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
)

func startServer(t *testing.T, opts Options, tr *obs.Tracer, deploy map[string]int) (*Server, string) {
	t.Helper()
	containers := testContainers(t)
	srv := NewServer(opts, tr)
	for _, name := range []string{"mlp", "neumf"} {
		n, ok := deploy[name]
		if !ok {
			continue
		}
		if err := srv.Deploy(name, containers[name], n); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

// TestServeEndToEnd drives a two-model deployment over TCP, batched and
// unbatched, and requires bitwise-equal output checksums and zero errors —
// the protocol-level restatement of the batching-equivalence guarantee.
func TestServeEndToEnd(t *testing.T) {
	run := func(maxBatch int) LoadReport {
		_, addr := startServer(t, Options{MaxBatch: maxBatch, MaxWait: time.Millisecond}, nil,
			map[string]int{"mlp": 1, "neumf": 1})
		rep, err := LoadGen{Addr: addr, Models: []string{"neumf", "mlp"}, Workers: 8, PerWorker: 40}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	batched := run(16)
	unbatched := run(1)
	if batched.Errors != 0 || unbatched.Errors != 0 {
		t.Fatalf("errors: batched %d, unbatched %d", batched.Errors, unbatched.Errors)
	}
	if batched.Requests != 2*8*40 {
		t.Fatalf("requests %d", batched.Requests)
	}
	if batched.Checksum != unbatched.Checksum {
		t.Fatalf("checksum mismatch: batched %016x, unbatched %016x — batching changed an output bit",
			batched.Checksum, unbatched.Checksum)
	}
}

func TestServeUnknownModelAndBadFrame(t *testing.T) {
	srv, addr := startServer(t, Options{}, nil, map[string]int{"mlp": 1})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Predict("bogus", []float32{1}, 0); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("want unknown-model error, got %v", err)
	}
	if srv.Rejected() == 0 {
		t.Fatal("rejection not counted")
	}
	// a frame that fails to decode gets an error reply, then the server
	// hangs up (the stream may be desynchronized)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := dist.WriteFrame(c, dist.MsgPredict, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	payload, err := dist.Expect(c, dist.MsgPredictReply)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dist.DecodePredictReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err == "" {
		t.Fatal("bad frame must be answered with an error reply")
	}
}

// TestLiveScalingNoDrops scales a deployment up and down continuously while
// a closed-loop load runs; every request must be answered (no drops, no
// errors) and the checksum must match an unperturbed run — scaling events
// are invisible to clients.
func TestLiveScalingNoDrops(t *testing.T) {
	spec := func(addr string) LoadGen {
		return LoadGen{Addr: addr, Models: []string{"mlp", "neumf"}, Workers: 8, PerWorker: 60}
	}
	// baseline: fixed single replica
	_, addr := startServer(t, Options{MaxBatch: 8, MaxWait: time.Millisecond}, nil,
		map[string]int{"mlp": 1, "neumf": 1})
	base, err := spec(addr).Run()
	if err != nil {
		t.Fatal(err)
	}

	srv, addr2 := startServer(t, Options{MaxBatch: 8, MaxWait: time.Millisecond}, nil,
		map[string]int{"mlp": 1, "neumf": 1})
	stopScaling := make(chan struct{})
	var scaler sync.WaitGroup
	scaler.Add(1)
	go func() {
		defer scaler.Done()
		n := 1
		for {
			select {
			case <-stopScaling:
				return
			case <-time.After(3 * time.Millisecond):
			}
			n = n%4 + 1 // 1→2→3→4→1…
			if err := srv.SetReplicas("mlp", n); err != nil {
				t.Error(err)
				return
			}
			if err := srv.SetReplicas("neumf", 5-n); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	perturbed, err := spec(addr2).Run()
	close(stopScaling)
	scaler.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if perturbed.Errors != 0 {
		t.Fatalf("%d requests failed during live scaling", perturbed.Errors)
	}
	if srv.Rejected() != 0 {
		t.Fatalf("%d requests rejected during live scaling", srv.Rejected())
	}
	if perturbed.Checksum != base.Checksum {
		t.Fatalf("scaling changed outputs: %016x vs %016x", perturbed.Checksum, base.Checksum)
	}
}

// TestAutoscalerSoak runs the saturation autoscaler against live load:
// deployments must scale up under pressure, answer everything, scale to
// zero when idle, and wake again for a late request.
func TestAutoscalerSoak(t *testing.T) {
	tr := obs.New()
	srv, addr := startServer(t,
		Options{MaxBatch: 8, MaxWait: time.Millisecond, Capacity: 6, IdleTicks: 3}, tr,
		map[string]int{"mlp": 1, "neumf": 1})
	stop := srv.StartAutoscaler(2 * time.Millisecond)
	defer stop()

	rep, err := LoadGen{Addr: addr, Models: []string{"mlp", "neumf"}, Workers: 12, PerWorker: 50}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || srv.Rejected() != 0 {
		t.Fatalf("autoscaler dropped work: %d errors, %d rejected", rep.Errors, srv.Rejected())
	}

	// idle: both deployments must reach zero replicas (generous window — the
	// race detector on a loaded single-core box stalls the ticker)
	deadline := time.Now().Add(20 * time.Second)
	for replicas(srv, "mlp")+replicas(srv, "neumf") > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no scale-to-zero: mlp=%d neumf=%d", replicas(srv, "mlp"), replicas(srv, "neumf"))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// scale-from-zero: a late request re-triggers allocation and is answered
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pool, err := inputPool("mlp", 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.Predict("mlp", pool[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty prediction after scale-from-zero")
	}
	if replicas(srv, "mlp") == 0 {
		t.Fatal("request answered but replica count still zero")
	}
}

// TestServeSpansRecorded: serving must land spans on its own per-replica
// tracks with the serve category, and the trace must export cleanly.
func TestServeSpansRecorded(t *testing.T) {
	tr := obs.New()
	srv, addr := startServer(t, Options{MaxBatch: 4, MaxWait: time.Millisecond}, tr,
		map[string]int{"mlp": 1})
	if _, err := (LoadGen{Addr: addr, Models: []string{"mlp"}, Workers: 2, PerWorker: 10}).Run(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	found := false
	for _, name := range tr.TrackNames() {
		if strings.HasPrefix(name, "serve/mlp/") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no serve replica track registered: %v", tr.TrackNames())
	}
	var sawBatch, sawQueue bool
	for _, spans := range tr.Spans() {
		for _, s := range spans {
			if s.Cat != obs.CatServe {
				continue
			}
			switch s.Name {
			case "serve.batch":
				sawBatch = true
			case "serve.queue":
				sawQueue = true
			}
		}
	}
	if !sawBatch || !sawQueue {
		t.Fatalf("missing serve spans: batch=%v queue=%v", sawBatch, sawQueue)
	}
}

// TestBenchSmokeInProcess runs the `make serve-smoke` check at toy size:
// deploy→load over the shared test containers, zero failed requests, and one
// checksum across batched/unbatched × TCP/in-process.
func TestBenchSmokeInProcess(t *testing.T) {
	rep, err := Smoke(testContainers(t), LoadGen{Models: []string{"neumf", "mlp"}, Workers: 4, PerWorker: 30}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 2*4*30 {
		t.Fatalf("smoke drove %d requests", rep.Requests)
	}
}

// replicas reports a deployment's current replica count.
func replicas(s *Server, name string) int {
	s.mu.Lock()
	d, ok := s.deps[name]
	s.mu.Unlock()
	if !ok {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.replicas)
}

// TestDispatchErrorPathsReplyOnce: Dispatch recycles its reply channels, so
// every path must reply exactly once. Each error path runs twice back to
// back on one goroutine: a second reply left in a recycled channel shows up
// as the next call's reply (wrong ID) or blocks its send (timeout), and a
// missing reply blocks the call.
func TestDispatchErrorPathsReplyOnce(t *testing.T) {
	containers := testContainers(t)
	// batches flush only when full or at a request's own deadline: the
	// poison request and its batchmate always share one coalesced pass
	srv := NewServer(Options{MaxBatch: 2, MaxWait: time.Hour}, nil)
	for _, name := range []string{"mlp", "neumf"} {
		if err := srv.Deploy(name, containers[name], 1); err != nil {
			t.Fatal(err)
		}
	}
	defer srv.Close()
	mlpRow, err := inputPool("mlp", 1)
	if err != nil {
		t.Fatal(err)
	}
	neumfRow, err := inputPool("neumf", 1)
	if err != nil {
		t.Fatal(err)
	}
	// batchmate answers the request that shares the poison's batch
	batchmate := func(id uint64) <-chan dist.PredictReply {
		c := make(chan dist.PredictReply, 1)
		go func() { c <- srv.Dispatch(dist.PredictRequest{ID: id, Model: "neumf", Input: neumfRow[0]}) }()
		return c
	}
	type call struct {
		path    string
		req     dist.PredictRequest
		wantErr string
		before  func() // runs before the Dispatch, on the same goroutine
	}
	var mates []<-chan dist.PredictReply
	calls := []call{
		{path: "unknown model", req: dist.PredictRequest{Model: "bogus", Input: mlpRow[0]}, wantErr: "unknown model"},
		{path: "malformed input", req: dist.PredictRequest{Model: "mlp", Input: []float32{1, 2, 3}, BudgetMicros: 1000}, wantErr: "input values"},
		{path: "degraded retry", req: dist.PredictRequest{Model: "neumf", Input: []float32{9e9, 9e9}}, wantErr: "rejected input",
			before: func() { mates = append(mates, batchmate(uint64(1000+len(mates)))) }},
		{path: "shutting down", req: dist.PredictRequest{Model: "mlp", Input: mlpRow[0]}, wantErr: "shutting down",
			before: srv.Close},
	}
	replies := make(chan dist.PredictReply)
	go func() {
		id := uint64(0)
		for _, c := range calls {
			for rep := 0; rep < 2; rep++ {
				if c.before != nil {
					c.before()
				}
				id++
				req := c.req
				req.ID = id
				replies <- srv.Dispatch(req)
			}
		}
	}()
	id := uint64(0)
	for _, c := range calls {
		for rep := 0; rep < 2; rep++ {
			id++
			select {
			case r := <-replies:
				if r.ID != id || !strings.Contains(r.Err, c.wantErr) {
					t.Fatalf("%s, call %d: reply {ID %d, Err %q}, want ID %d and an error containing %q",
						c.path, rep+1, r.ID, r.Err, id, c.wantErr)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s, call %d: no reply after 10s", c.path, rep+1)
			}
		}
	}
	for i, m := range mates {
		if r := <-m; r.Err != "" || r.ID != uint64(1000+i) || len(r.Output) == 0 {
			t.Fatalf("the poison's batchmate %d got {ID %d, Err %q}", i, r.ID, r.Err)
		}
	}
}
