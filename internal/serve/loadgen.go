package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/models"
)

// LoadGen is a closed-loop load generator: Workers goroutines per model,
// each with its own client connection, each issuing PerWorker requests
// back-to-back (a new request the moment the previous reply lands). Inputs
// are drawn from the model's own synthetic dataset, so embedding ids stay
// in vocabulary, and the request stream is a pure function of
// (model, worker, i) — two runs against differently-configured servers see
// bitwise-identical requests, which is what makes the output checksum a
// batching-equivalence oracle. Each model's requests cycle through
// loadInputPool dataset rows and carry no deadline budget, so the server's
// default applies.
type LoadGen struct {
	// Addr is the serve server's TCP address.
	Addr string
	// Direct, when set, bypasses TCP and drives Server.Dispatch in-process
	// (Addr is ignored). This measures the serving core — queueing,
	// batching, forward — without loopback syscalls, which on small hosts
	// otherwise dominate and mask the batching gain.
	Direct *Server
	// Models lists the deployments to drive (each gets its own worker
	// pool).
	Models []string
	// Workers is the closed-loop worker count per model.
	Workers int
	// PerWorker is the request count per worker.
	PerWorker int
}

// loadInputPool is how many distinct dataset rows each model's request stream
// cycles through.
const loadInputPool = 256

// LoadReport summarizes one load-generation run.
type LoadReport struct {
	// Requests is the number issued; Errors the number answered with an
	// error (a correct run has zero — the zero-drop invariant).
	Requests, Errors int
	// Latency summarizes per-request latency in milliseconds.
	Latency metrics.Summary
	// LatencyBucketsMs buckets the same latencies (bounds in
	// LatencyBoundsMs).
	LatencyBucketsMs []int
	// Checksum is an FNV-1a fold of every output's float bits in
	// deterministic (model, worker, i) order: equal request streams must
	// produce equal checksums regardless of batching, replica count, or
	// scaling events.
	Checksum uint64
	// Seconds is the wall time of the whole run; Throughput the aggregate
	// requests per second.
	Seconds    float64
	Throughput float64
}

// LatencyBoundsMs are the histogram bucket bounds of LoadReport.
var LatencyBoundsMs = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128}

// inputPool materializes n distinct rows of the model's dataset
// (deterministically: no augmentation stream).
func inputPool(name string, n int) ([][]float32, error) {
	w, err := models.Build(name, 1)
	if err != nil {
		return nil, err
	}
	dim := 1
	for _, d := range w.Dataset.InputShape() {
		dim *= d
	}
	pool := make([][]float32, n)
	for i := range pool {
		row := make([]float32, dim)
		w.Dataset.Sample(i%w.Dataset.Len(), row, nil)
		pool[i] = row
	}
	return pool, nil
}

// Run drives the load and reports. Results are collected in pre-indexed
// per-worker slots — no result channels — so aggregation order is a pure
// function of the spec (detlint: serve is ordering-sensitive).
func (g LoadGen) Run() (LoadReport, error) {
	if g.Workers <= 0 || g.PerWorker <= 0 || len(g.Models) == 0 {
		return LoadReport{}, fmt.Errorf("serve: loadgen needs models, workers, and requests")
	}
	pools := make([][][]float32, len(g.Models))
	for m, name := range g.Models {
		p, err := inputPool(name, loadInputPool)
		if err != nil {
			return LoadReport{}, err
		}
		pools[m] = p
	}

	type slot struct {
		latencyMs float64
		checksum  uint64
		failed    bool
	}
	slots := make([][]slot, len(g.Models)*g.Workers)
	for i := range slots {
		slots[i] = make([]slot, g.PerWorker)
	}

	var wg sync.WaitGroup
	errs := make([]error, len(g.Models)*g.Workers)
	start := time.Now()
	for m := range g.Models {
		for w := 0; w < g.Workers; w++ {
			wg.Add(1)
			go func(m, w int) {
				defer wg.Done()
				wi := m*g.Workers + w
				predict := func(model string, in []float32) ([]float32, error) {
					rep := g.Direct.Dispatch(dist.PredictRequest{ID: 1, Model: model, Input: in})
					if rep.Err != "" {
						return nil, errors.New(rep.Err)
					}
					return rep.Output, nil
				}
				if g.Direct == nil {
					cl, err := Dial(g.Addr)
					if err != nil {
						errs[wi] = err
						for i := range slots[wi] {
							slots[wi][i].failed = true
						}
						return
					}
					defer cl.Close()
					predict = func(model string, in []float32) ([]float32, error) {
						return cl.Predict(model, in, 0)
					}
				}
				pool := pools[m]
				for i := 0; i < g.PerWorker; i++ {
					input := pool[(w*g.PerWorker+i)%len(pool)]
					t0 := time.Now()
					out, err := predict(g.Models[m], input)
					lat := time.Since(t0)
					st := &slots[wi][i]
					st.latencyMs = float64(lat) / float64(time.Millisecond)
					if err != nil {
						st.failed = true
						continue
					}
					h := fnv.New64a()
					var b [4]byte
					for _, v := range out {
						bits := math.Float32bits(v)
						b[0], b[1], b[2], b[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
						h.Write(b[:])
					}
					st.checksum = h.Sum64()
				}
			}(m, w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := LoadReport{Requests: len(g.Models) * g.Workers * g.PerWorker}
	lats := make([]float64, 0, rep.Requests)
	fold := fnv.New64a()
	var fb [8]byte
	for wi := range slots {
		for i := range slots[wi] {
			st := slots[wi][i]
			if st.failed {
				rep.Errors++
				continue
			}
			lats = append(lats, st.latencyMs)
			c := st.checksum
			for k := 0; k < 8; k++ {
				fb[k] = byte(c >> (8 * k))
			}
			fold.Write(fb[:])
		}
	}
	rep.Latency = metrics.Summarize(lats)
	rep.LatencyBucketsMs = metrics.Histogram(lats, LatencyBoundsMs)
	rep.Checksum = fold.Sum64()
	rep.Seconds = elapsed.Seconds()
	if rep.Seconds > 0 {
		rep.Throughput = float64(rep.Requests-rep.Errors) / rep.Seconds
	}
	for _, err := range errs {
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}
