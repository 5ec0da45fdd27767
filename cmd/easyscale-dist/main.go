// Command easyscale-dist runs EasyScale as genuinely separate OS processes:
// one coordinator process and one worker process per physical worker,
// exchanging gradients and checkpoints over TCP.
//
// Example (three shells, or background the first two):
//
//	easyscale-dist coordinator -addr 127.0.0.1:7070 -workers 2 -steps 20 \
//	    -model bert -ests 4 -gpus V100:1,P100:1 -out /tmp/job.ckpt -verify
//	easyscale-dist worker -coord 127.0.0.1:7070 -model bert -ests 4
//	easyscale-dist worker -coord 127.0.0.1:7070 -model bert -ests 4
//
// Every process is handed the same job definition (model, ESTs, batch, seed) —
// the "training script plus launcher args" convention. The coordinator alone
// knows the placement: a worker learns its slot, the placement, the leader
// address, the step budget, and its restore state from the coordinator's
// reconfigure frame. A second coordinator run with -in /tmp/job.ckpt (and a
// fresh set of workers, under any placement) resumes from that checkpoint.
// The coordinator optionally verifies the resulting checkpoint bitwise
// against an in-process fixed-DoP reference.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "coordinator":
		runCoordinator(os.Args[2:])
	case "worker":
		runWorker(os.Args[2:])
	case "elastic":
		runElastic(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: easyscale-dist {coordinator|worker|elastic} [flags]")
	os.Exit(2)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// jobFlags registers the job-definition flags every process shares and
// returns a builder for the resulting config.
func jobFlags(fs *flag.FlagSet) (model *string, epoch *uint64, config func() core.Config) {
	model = fs.String("model", "bert", "workload name")
	ests := fs.Int("ests", 4, "number of logical workers (ESTs)")
	batch := fs.Int("batch", 4, "per-EST mini-batch size")
	seed := fs.Uint64("seed", 42, "job master seed")
	epoch = fs.Uint64("epoch", 1, "rendezvous epoch; the coordinator rejects workers from any other epoch")
	timeout := fs.Duration("timeout", 0, "network operation deadline (0: the built-in 30s)")
	config = func() core.Config {
		cfg := core.DefaultConfig(*ests)
		cfg.BatchPerEST = *batch
		cfg.Seed = *seed
		cfg.DistTimeout = *timeout
		return cfg
	}
	return
}

func runCoordinator(args []string) {
	fs := flag.NewFlagSet("coordinator", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "rendezvous address")
	workers := fs.Int("workers", 2, "worker processes to admit")
	steps := fs.Int("steps", 20, "global steps this phase")
	gpus := fs.String("gpus", "V100:2", "placement, e.g. V100:1,P100:1 (one worker process per GPU entry)")
	out := fs.String("out", "", "file to write the resulting on-demand checkpoint to")
	in := fs.String("in", "", "checkpoint file to restore the phase from")
	verify := fs.Bool("verify", false, "verify the result bitwise against an in-process fixed-DoP run")
	model, epoch, config := jobFlags(fs)
	die(fs.Parse(args))

	cfg := config()
	placement, err := core.ParsePlacement(*gpus, cfg.NumESTs)
	die(err)
	if n := len(placement.Assignment); n != *workers {
		die(fmt.Errorf("-gpus %s places %d workers, -workers says %d", *gpus, n, *workers))
	}
	var ckptIn []byte
	if *in != "" {
		ckptIn, err = os.ReadFile(*in)
		die(err)
	}

	coord, err := dist.NewCoordinatorAddr(*addr)
	die(err)
	defer coord.Close()
	coord.SetTimeout(cfg.DistTimeout)
	fmt.Printf("coordinator listening on %s, waiting for %d workers (epoch %d)...\n", coord.Addr(), *workers, *epoch)

	ckpt, err := coord.RunPhase(cfg, *epoch, dist.Phase{Placement: placement, Steps: *steps}, ckptIn)
	die(err)
	fmt.Printf("phase complete: %d steps across %d worker processes\n", *steps, *workers)

	if *out != "" {
		die(os.WriteFile(*out, ckpt, 0o644))
		fmt.Printf("on-demand checkpoint written to %s (%d bytes)\n", *out, len(ckpt))
	}

	if *verify {
		got, err := core.RestoreJob(cfg, ckpt)
		die(err)
		ref, err := core.NewJob(cfg, *model)
		die(err)
		homog := make([]device.Type, cfg.NumESTs)
		for i := range homog {
			homog[i] = device.V100
		}
		die(ref.Attach(core.EvenPlacement(cfg.NumESTs, homog...)))
		die(ref.RunSteps(got.GlobalStep()))
		if core.ParamsEqual(got, ref) {
			fmt.Printf("verify: BITWISE IDENTICAL to in-process DDP on %d V100s after %d steps\n", cfg.NumESTs, got.GlobalStep())
		} else {
			fmt.Println("verify: DIVERGED")
			fmt.Print(core.Diagnose(ref, got))
			os.Exit(1)
		}
	}
}

func runWorker(args []string) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	coord := fs.String("coord", "127.0.0.1:7070", "coordinator rendezvous address")
	model, epoch, config := jobFlags(fs)
	die(fs.Parse(args))

	die(dist.RunWorker(dist.WorkerSpec{Cfg: config(), Workload: *model, CoordAddr: *coord, Epoch: *epoch}))
	fmt.Println("worker done")
}

// parsePhases reads a ';'-separated phase list, each entry PLACEMENT@STEPS
// (the placement syntax of -gpus), e.g. "V100:2@10;V100:1,P100:1@10".
func parsePhases(spec string, ests int) ([]dist.Phase, error) {
	var phases []dist.Phase
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		at := strings.LastIndex(entry, "@")
		if at < 0 {
			return nil, fmt.Errorf("phase %q: want PLACEMENT@STEPS", entry)
		}
		steps, err := strconv.Atoi(entry[at+1:])
		if err != nil || steps <= 0 {
			return nil, fmt.Errorf("phase %q: bad step count", entry)
		}
		p, err := core.ParsePlacement(entry[:at], ests)
		if err != nil {
			return nil, err
		}
		phases = append(phases, dist.Phase{Placement: p, Steps: steps})
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("no phases in %q", spec)
	}
	return phases, nil
}

// runElastic drives a whole elastic run — coordinator plus one in-process
// networked worker per placement entry per phase — through dist.Run, the
// single-binary counterpart of the coordinator/worker subcommands.
func runElastic(args []string) {
	fs := flag.NewFlagSet("elastic", flag.ExitOnError)
	model := fs.String("model", "bert", "workload name")
	ests := fs.Int("ests", 4, "number of logical workers (ESTs)")
	batch := fs.Int("batch", 4, "per-EST mini-batch size")
	seed := fs.Uint64("seed", 42, "job master seed")
	timeout := fs.Duration("timeout", 0, "network operation deadline (0: the built-in 30s)")
	phasesSpec := fs.String("phases", "V100:2@10;V100:1@10", "';'-separated phases, each PLACEMENT@STEPS")
	live := fs.Bool("live", false, "migrate ESTs between phases instead of stop-restart (sharded multi-peer state handoff)")
	retries := fs.Int("retries", 0, "retries per failed phase (crash recovery)")
	out := fs.String("out", "", "file to write the final on-demand checkpoint to")
	traceOut := fs.String("trace", "", "write a Perfetto-loadable Chrome trace of the run to this file")
	die(fs.Parse(args))

	cfg := core.DefaultConfig(*ests)
	cfg.BatchPerEST = *batch
	cfg.Seed = *seed
	cfg.DistTimeout = *timeout

	phases, err := parsePhases(*phasesSpec, *ests)
	die(err)

	opts := []dist.Option{dist.WithRetryPolicy(dist.RetryPolicy{MaxRetries: *retries})}
	if *live {
		opts = append(opts, dist.WithLiveMigration())
	}
	var tr *obs.Tracer
	if *traceOut != "" {
		tr = obs.New()
		opts = append(opts, dist.WithTracer(tr))
	}
	ckpt, err := dist.Run(cfg, *model, phases, opts...)
	die(err)
	job, err := core.RestoreJob(cfg, ckpt)
	die(err)
	mode := "stop-restart"
	if *live {
		mode = "live migration"
	}
	fmt.Printf("elastic run complete: %d phases (%s), %d global steps, epoch %d\n", len(phases), mode, job.GlobalStep(), job.Epoch())

	if *out != "" {
		die(os.WriteFile(*out, ckpt, 0o644))
		fmt.Printf("on-demand checkpoint written to %s (%d bytes)\n", *out, len(ckpt))
	}
	if tr != nil {
		f, err := os.Create(*traceOut)
		die(err)
		die(tr.WriteChromeTrace(f))
		die(f.Close())
		fmt.Printf("trace written to %s (open in ui.perfetto.dev)\n", *traceOut)
	}
}
