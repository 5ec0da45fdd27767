package serve

import (
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/device"
)

// TrainContainers trains each model briefly on the in-process engine and
// returns its sharded checkpoint container — the artifact a real cluster
// would hand from the training side to the serving side.
func TrainContainers(names []string, steps int, seed uint64) (map[string][]byte, error) {
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		cfg := core.DefaultConfig(1)
		cfg.Seed = seed
		j, err := core.NewJob(cfg, name)
		if err != nil {
			return nil, fmt.Errorf("serve: training %q: %w", name, err)
		}
		if err := j.Attach(core.EvenPlacement(1, device.V100)); err != nil {
			return nil, fmt.Errorf("serve: training %q: %w", name, err)
		}
		if err := j.RunSteps(steps); err != nil {
			return nil, fmt.Errorf("serve: training %q: %w", name, err)
		}
		out[name] = j.Checkpoint()
	}
	return out, nil
}

// Smoke is the check behind `make serve-smoke`: it deploys the containers at
// MaxBatch maxBatch and at 1, drives gen's closed-loop load at each, over TCP
// and in-process, and fails unless every request was answered and all four
// output checksums agree — neither the transport nor batching may change an
// output bit. It returns the first mode's report.
func Smoke(containers map[string][]byte, gen LoadGen, maxBatch int) (LoadReport, error) {
	var first LoadReport
	for i, mode := range []struct {
		maxBatch int
		direct   bool
	}{{maxBatch, false}, {1, false}, {maxBatch, true}, {1, true}} {
		rep, err := smokeMode(containers, gen, mode.maxBatch, mode.direct)
		switch {
		case err != nil:
			return rep, err
		case rep.Errors != 0:
			return rep, fmt.Errorf("serve: %d of %d requests failed at %+v", rep.Errors, rep.Requests, mode)
		case i == 0:
			first = rep
		case rep.Checksum != first.Checksum:
			return rep, fmt.Errorf("serve: checksum %016x at %+v != %016x batched over TCP", rep.Checksum, mode, first.Checksum)
		}
	}
	return first, nil
}

// smokeMode serves the containers with one batching bound and drives gen
// against it, over TCP or (direct) in-process.
func smokeMode(containers map[string][]byte, gen LoadGen, maxBatch int, direct bool) (LoadReport, error) {
	srv := NewServer(Options{MaxBatch: maxBatch, MaxWait: 2 * time.Millisecond}, nil)
	defer srv.Close()
	for _, name := range gen.Models {
		if err := srv.Deploy(name, containers[name], 1); err != nil {
			return LoadReport{}, err
		}
	}
	if direct {
		gen.Direct = srv
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return LoadReport{}, err
		}
		go srv.Serve(ln)
		gen.Addr = ln.Addr().String()
	}
	return gen.Run()
}
