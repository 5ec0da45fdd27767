// Command easyscale-serve is the elastic inference side of EasyScale: it
// loads zoo models from sharded checkpoint containers and serves predict
// requests with deadline-aware dynamic batching and saturation-based
// replica autoscaling.
//
// Subcommands:
//
//	serve  — train-or-load checkpoints, listen, and serve until killed
//	smoke  — small end-to-end run asserting batched == unbatched outputs
//
// Examples:
//
//	easyscale-serve serve -addr 127.0.0.1:9090 -models neumf,mlp
//	easyscale-serve smoke
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		runServe(os.Args[2:])
	case "smoke":
		runSmoke(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: easyscale-serve {serve|smoke} [flags]")
	os.Exit(2)
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func splitModels(s string) []string {
	var out []string
	for _, m := range strings.Split(s, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "listen address")
	modelsFlag := fs.String("models", "neumf,mlp", "comma-separated zoo models to deploy")
	steps := fs.Int("train-steps", 2, "training steps before each model's checkpoint is taken")
	seed := fs.Uint64("seed", 17, "training seed")
	maxBatch := fs.Int("max-batch", 32, "dynamic batching bound")
	maxWait := fs.Duration("max-wait", 2*time.Millisecond, "flush deadline for a forming batch")
	capacity := fs.Int("capacity", 0, "total replica budget across deployments (0: unlimited)")
	idleTicks := fs.Int("idle-ticks", 5, "autoscale rounds before an idle model scales to zero (0: never)")
	scaleEvery := fs.Duration("scale-every", 50*time.Millisecond, "autoscaler interval (0: autoscaler off, 1 replica each)")
	die(fs.Parse(args))

	names := splitModels(*modelsFlag)
	containers, err := serve.TrainContainers(names, *steps, *seed)
	die(err)
	srv := serve.NewServer(serve.Options{
		MaxBatch: *maxBatch, MaxWait: *maxWait,
		Capacity: *capacity, IdleTicks: *idleTicks,
	}, obs.New())
	for _, name := range names {
		die(srv.Deploy(name, containers[name], 1))
	}
	if *scaleEvery > 0 {
		stop := srv.StartAutoscaler(*scaleEvery)
		defer stop()
	}
	ln, err := net.Listen("tcp", *addr)
	die(err)
	fmt.Printf("serving %v on %s (max-batch %d, max-wait %v)\n", names, ln.Addr(), *maxBatch, *maxWait)
	srv.Serve(ln)
}

// runSmoke is the `make serve-smoke` entry: a small two-model run that
// fails unless every request is answered and batched outputs are bitwise
// the unbatched ones.
func runSmoke(args []string) {
	fs := flag.NewFlagSet("smoke", flag.ExitOnError)
	requests := fs.Int("requests", 1024, "total requests per mode")
	die(fs.Parse(args))

	names := []string{"neumf", "mlp"}
	workers := 8
	perWorker := (*requests + len(names)*workers - 1) / (len(names) * workers)
	containers, err := serve.TrainContainers(names, 1, 17)
	die(err)
	rep, err := serve.Smoke(containers, serve.LoadGen{Models: names, Workers: workers, PerWorker: perWorker}, 16)
	die(err)
	fmt.Printf("serve smoke ok: %d requests × 4 modes through %v, checksums equal (%016x)\n",
		rep.Requests, names, rep.Checksum)
}
