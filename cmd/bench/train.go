package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
)

// train_conv: an in-process resnet50 job, 4 ESTs x batch 4 on one V100 and
// one P100 (two ESTs per GPU force context switches, the mixed types force
// the D2 kernels). One op is one global step; one work item is one sample.

const (
	trainESTs  = 4
	trainBatch = 4
	// trainOracleStep is the warm-up step whose parameter hash the oracle
	// compares; a full-length twin would double the run.
	trainOracleStep = 100
)

func trainConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig(trainESTs)
	cfg.BatchPerEST = trainBatch
	cfg.Seed = seed
	return cfg
}

// newTrainJob builds a job of the named model attached to placement p.
func newTrainJob(seed uint64, model string, p core.Placement) (*core.Job, error) {
	j, err := core.NewJob(trainConfig(seed), model)
	if err != nil {
		return nil, err
	}
	if err := j.Attach(p); err != nil {
		return nil, err
	}
	return j, nil
}

type trainRun struct {
	seed       uint64
	job        *core.Job
	steps      int
	lat        []float64
	oracleStep int
	oracleHash uint64
}

func setupTrain(seed uint64, sz sizing) (instance, error) {
	j, err := newTrainJob(seed, "resnet50", core.EvenPlacement(trainESTs, device.V100, device.P100))
	if err != nil {
		return nil, err
	}
	r := &trainRun{seed: seed, job: j, steps: sz.blockOps, lat: make([]float64, 0, sz.blockOps)}
	r.oracleStep = min(trainOracleStep, sz.warmOps)
	for s := 1; s <= sz.warmOps; s++ {
		if err := j.RunStep(); err != nil {
			return nil, err
		}
		if s == r.oracleStep {
			r.oracleHash = j.ParamsHash()
		}
	}
	return r, nil
}

func (r *trainRun) block(rec *recorder) blockResult {
	ln := rec.lane("train")
	res := blockResult{lat: r.lat[:0], ops: r.steps}
	for s := 0; s < r.steps; s++ {
		t0 := now()
		id := ln.open("core.RunStep", -1, s)
		err := guard(r.job.RunStep)
		ln.close(id)
		if err != nil {
			res.failed++
			continue
		}
		res.lat = append(res.lat, ms(since(t0)))
	}
	res.work = float64((res.ops - res.failed) * trainESTs * trainBatch)
	return res
}

// check steps a same-seed job on one V100 to the oracle step: the bitwise
// contract says placement never shows in the parameters.
func (r *trainRun) check() error {
	twin, err := newTrainJob(r.seed, "resnet50", core.EvenPlacement(trainESTs, device.V100))
	if err != nil {
		return err
	}
	if err := twin.RunSteps(r.oracleStep); err != nil {
		return err
	}
	if got := twin.ParamsHash(); got != r.oracleHash {
		return fmt.Errorf("train_conv: params hash %016x at step %d on V100+P100, %016x on one V100", r.oracleHash, r.oracleStep, got)
	}
	return nil
}

func (r *trainRun) close() { r.job.Detach() }
