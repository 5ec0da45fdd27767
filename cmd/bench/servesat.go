package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serve_sat: the serving core saturated in process. Two tiny models, one
// replica each; as many closed-loop callers per model as MaxBatch, so every
// flush is triggered by size and the 2 ms timer never is. One op is one
// request, which is also the work item.

var serveModels = []string{"neumf", "mlp"}

const (
	serveMaxBatch   = 32
	serveMaxWait    = 2 * time.Millisecond
	serveCallers    = 32   // per model
	serveTrainSteps = 2    // enough to make the parameters non-trivial
	serveRowPool    = 1024 // distinct request rows per model
	// serveOraclePer replies per caller are checksummed during warm-up:
	// serveCallers x serveOraclePer = the first 1,024 replies of each model.
	serveOraclePer = serveRowPool / serveCallers
)

type serveRun struct {
	containers map[string][]byte
	srv        *serve.Server
	rows       [][][]float32 // [model][row]
	perCaller  int
	lat        []float64
	warmSums   [][]uint64 // [model][caller*serveOraclePer+i]: checksum of that reply
}

// newServer deploys the containers, one replica per model. tr is the
// program's own tracer, nil outside the probe that prices it.
func newServer(containers map[string][]byte, maxBatch int, tr *obs.Tracer) (*serve.Server, error) {
	srv := serve.NewServer(serve.Options{MaxBatch: maxBatch, MaxWait: serveMaxWait}, tr)
	for _, name := range serveModels {
		if err := srv.Deploy(name, containers[name], 1); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return srv, nil
}

// requestRows draws the request rows of every model from its own dataset (the
// only source of in-vocabulary embedding ids), in an order set by the seed.
func requestRows(containers map[string][]byte, seed uint64) ([][][]float32, error) {
	rows := make([][][]float32, len(serveModels))
	for m, name := range serveModels {
		sv, err := models.Load(name, containers[name])
		if err != nil {
			return nil, err
		}
		g := newSplitmix(seed, "rows-"+name)
		rows[m] = make([][]float32, serveRowPool)
		for i := range rows[m] {
			row := make([]float32, sv.InDim())
			sv.Dataset.Sample(g.intn(sv.Dataset.Len()), row, nil)
			rows[m][i] = row
		}
	}
	return rows, nil
}

func setupServe(seed uint64, sz sizing) (instance, error) {
	containers, err := serve.TrainContainers(serveModels, serveTrainSteps, seed)
	if err != nil {
		return nil, err
	}
	rows, err := requestRows(containers, seed)
	if err != nil {
		return nil, err
	}
	srv, err := newServer(containers, serveMaxBatch, nil)
	if err != nil {
		return nil, err
	}
	callers := len(serveModels) * serveCallers
	r := &serveRun{containers: containers, srv: srv, rows: rows, perCaller: sz.blockOps / callers}
	r.warmSums = make([][]uint64, len(serveModels))
	for m := range r.warmSums {
		r.warmSums[m] = make([]uint64, serveRowPool)
	}
	if _, failed := r.load(max(sz.warmOps/callers, serveOraclePer), nil, true); failed > 0 {
		srv.Close()
		return nil, fmt.Errorf("%d warm-up requests failed", failed)
	}
	return r, nil
}

// replySum folds one reply's output bits.
func replySum(out []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range out {
		bits := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// load runs every caller for per requests, back-to-back, and returns the
// latencies of the requests that succeeded. Caller c of model m starts at row
// c*serveOraclePer and walks the pool in order, so the first serveOraclePer
// requests of all callers together are exactly the pool. With warm set, those
// replies are checksummed for the oracle and nothing is timed.
func (r *serveRun) load(per int, rec *recorder, warm bool) (lat []float64, failed int) {
	var wg sync.WaitGroup
	good := make([]int, len(serveModels)*serveCallers)
	if need := per * len(good); !warm && len(r.lat) < need {
		r.lat = make([]float64, need)
	}
	for m, name := range serveModels {
		for c := 0; c < serveCallers; c++ {
			wg.Add(1)
			go func(m, c int, name string, ln *lane) {
				defer wg.Done()
				ci := m*serveCallers + c
				rows := r.rows[m]
				req := dist.PredictRequest{ID: 1, Model: name}
				for i := 0; i < per; i++ {
					req.Input = rows[(c*serveOraclePer+i)%len(rows)]
					t0 := now()
					id := ln.open("serve.Dispatch", -1, i)
					var rep dist.PredictReply
					err := guard(func() error {
						if rep = r.srv.Dispatch(req); rep.Err != "" {
							return fmt.Errorf("%s", rep.Err)
						}
						return nil
					})
					ln.close(id)
					if err != nil {
						continue
					}
					if warm {
						if i < serveOraclePer {
							r.warmSums[m][c*serveOraclePer+i] = replySum(rep.Output)
						}
					} else {
						r.lat[ci*per+good[ci]] = ms(since(t0))
					}
					good[ci]++
				}
			}(m, c, name, rec.lane(fmt.Sprintf("%s/caller-%02d", name, c)))
		}
	}
	wg.Wait()
	lat = r.lat[:0]
	for ci, n := range good {
		failed += per - n
		if !warm {
			lat = append(lat, r.lat[ci*per:ci*per+n]...)
		}
	}
	return lat, failed
}

func (r *serveRun) block(rec *recorder) blockResult {
	lat, failed := r.load(r.perCaller, rec, false)
	ops := r.perCaller * len(serveModels) * serveCallers
	return blockResult{lat: lat, ops: ops, failed: failed, work: float64(ops - failed)}
}

// check replays the pool, one request at a time, through a server that never
// batches: batching must not change an output bit.
func (r *serveRun) check() error {
	ref, err := newServer(r.containers, 1, nil)
	if err != nil {
		return err
	}
	defer ref.Close()
	for m, name := range serveModels {
		for i, row := range r.rows[m] {
			rep := ref.Dispatch(dist.PredictRequest{ID: 1, Model: name, Input: row})
			if rep.Err != "" {
				return fmt.Errorf("serve_sat: unbatched %s request %d: %s", name, i, rep.Err)
			}
			if got := replySum(rep.Output); got != r.warmSums[m][i] {
				return fmt.Errorf("serve_sat: %s reply %d: checksum %016x batched, %016x unbatched", name, i, r.warmSums[m][i], got)
			}
		}
	}
	if rej := r.srv.Rejected(); rej != 0 {
		return fmt.Errorf("serve_sat: the server rejected %d requests", rej)
	}
	return nil
}

func (r *serveRun) close() { r.srv.Close() }
