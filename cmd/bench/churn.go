package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dist"
)

// churn_live: the distributed runtime under live migration, over loopback.
// One op is one whole elastic run of six phases — 4, 2, 2 mixed, 2, 2 mixed
// and 1 workers — so every op pays five scale events; one work item is one
// scale event.

const churnModel = "bert"

// churnPhases is the elastic schedule of one op, stepsPerPhase steps a phase.
func churnPhases(stepsPerPhase int) []dist.Phase {
	v, p := device.V100, device.P100
	var phases []dist.Phase
	for _, devs := range [][]device.Type{{v, v, v, v}, {v, v}, {v, p}, {v, v}, {v, p}, {v}} {
		phases = append(phases, dist.Phase{Placement: core.EvenPlacement(trainESTs, devs...), Steps: stepsPerPhase})
	}
	return phases
}

const (
	churnStepsPerPhase = 2
	churnScaleEvents   = 5
)

type churnRun struct {
	cfg    core.Config
	phases []dist.Phase
	opts   []dist.Option
	ops    int
	lat    []float64
	last   []byte // the final checkpoint of the last op that succeeded
}

func setupChurn(seed uint64, sz sizing) (instance, error) {
	r := &churnRun{
		cfg: trainConfig(seed), phases: churnPhases(churnStepsPerPhase), opts: []dist.Option{dist.WithLiveMigration()},
		ops: sz.blockOps, lat: make([]float64, 0, sz.blockOps),
	}
	for i := 0; i < sz.warmOps; i++ {
		if _, err := r.op(nil, i); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *churnRun) op(ln *lane, i int) (ckpt []byte, err error) {
	id := ln.open("dist.Run", -1, i)
	err = guard(func() (err error) {
		ckpt, err = dist.Run(r.cfg, churnModel, r.phases, r.opts...)
		return err
	})
	ln.close(id)
	return ckpt, err
}

func (r *churnRun) block(rec *recorder) blockResult {
	ln := rec.lane("churn")
	res := blockResult{lat: r.lat[:0], ops: r.ops}
	for i := 0; i < r.ops; i++ {
		t0 := now()
		ckpt, err := r.op(ln, i)
		if err != nil {
			res.failed++
			continue
		}
		res.lat = append(res.lat, ms(since(t0)))
		r.last = ckpt
	}
	res.work = float64((res.ops - res.failed) * churnScaleEvents)
	return res
}

// check restores the last op's final checkpoint and compares it with an
// in-process job that ran the same number of steps on one GPU.
func (r *churnRun) check() error {
	if r.last == nil {
		return fmt.Errorf("churn_live: no op succeeded")
	}
	got, err := core.RestoreJob(r.cfg, r.last)
	if err != nil {
		return fmt.Errorf("churn_live: restoring the final checkpoint: %w", err)
	}
	steps := len(r.phases) * churnStepsPerPhase
	want, err := newTrainJob(r.cfg.Seed, churnModel, core.EvenPlacement(trainESTs, device.V100))
	if err != nil {
		return err
	}
	if err := want.RunSteps(steps); err != nil {
		return err
	}
	if got.GlobalStep() != steps || !core.ParamsEqual(got, want) {
		return fmt.Errorf("churn_live: the elastic run (step %d) diverged from an in-process %d-step job:\n%s", got.GlobalStep(), steps, core.Diagnose(got, want))
	}
	return nil
}

func (r *churnRun) close() {}
