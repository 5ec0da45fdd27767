package serve

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
)

// BenchmarkServeSaturated times the benchmark's serve_sat op: one in-process
// request to a server saturated by 32 closed-loop callers on each of two
// tiny models (neumf, mlp), one replica each, MaxBatch 32, so batches fill
// by size and the 2 ms flush timer never fires. b.N requests in total; one
// warm-up round of 32 requests per caller stays outside the timer. `make
// prof-serve` runs it under the CPU profiler.
func BenchmarkServeSaturated(b *testing.B) {
	const callers = 32 // per model
	models := []string{"neumf", "mlp"}
	containers := testContainers(b)
	srv := NewServer(Options{MaxBatch: 32, MaxWait: 2 * time.Millisecond}, nil)
	defer srv.Close()
	rows := make([][][]float32, len(models))
	for m, name := range models {
		if err := srv.Deploy(name, containers[name], 1); err != nil {
			b.Fatal(err)
		}
		var err error
		if rows[m], err = inputPool(name, 1024); err != nil {
			b.Fatal(err)
		}
	}
	run := func(total int) {
		var wg sync.WaitGroup
		for c := range len(models) * callers {
			m := c % len(models)
			per := total / (len(models) * callers)
			if c < total%(len(models)*callers) {
				per++
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := dist.PredictRequest{ID: 1, Model: models[m]}
				for i := range per {
					req.Input = rows[m][(c*per+i)%len(rows[m])]
					if rep := srv.Dispatch(req); rep.Err != "" {
						b.Error(rep.Err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	run(len(models) * callers * 32)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}
