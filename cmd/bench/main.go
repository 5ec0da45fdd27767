// Command bench is the repository's one benchmark: four long closed-loop
// workloads measured from outside the program, by timing calls into the
// public functions of internal/*. See README.md for what each workload is for
// and how a run is measured.
//
//	bench --workload train_conv --seed 1 --seconds 16 --trace 0
//
// The last line of standard output is one JSON object: whether the outputs
// were correct, operations attempted and failed, and the metrics — the
// end-to-end ones with --trace 0, the per-layer ones with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/kernels"
)

// sizing fixes how much work a run does. Counts, not durations: the same
// sizing repeats the same operations exactly.
type sizing struct {
	setups   int // set-up repetitions; setup_s is their median
	blocks   int // measured blocks
	blockOps int // operations per block
	warmOps  int // warm-up operations, charged to set-up
	jobs     int // plane_replay only: jobs in the tenant trace
}

// instance is one set-up workload, ready to be measured.
type instance interface {
	// block runs one block's operations and returns their latencies.
	block(rec *recorder) blockResult
	// check is the correctness oracle; it runs after the last block.
	check() error
	close()
}

type workloadDef struct {
	name string
	why  string
	// refBlockSec is how long one block of the full sizing takes on the
	// 2-core reference box; --seconds buys seconds/refBlockSec blocks.
	refBlockSec float64
	// full is what an untraced run measures; traced is the reduced sizing of
	// the traced run, whose blocks count pairs of traced and untraced
	// blocks; toy is what the tests run.
	full, traced, toy sizing
	setup             func(seed uint64, sz sizing) (instance, error)
}

var workloads = []workloadDef{
	{
		name:        "train_conv",
		why:         "in-process resnet50 steps: kernels and nn at conv shapes that cross the parallel-dispatch threshold; dist, serve and controlplane idle",
		refBlockSec: 2.6,
		full:        sizing{setups: 3, blockOps: 500, warmOps: 200},
		traced:      sizing{blocks: 2, blockOps: 150, warmOps: 50},
		toy:         sizing{setups: 1, blocks: 1, blockOps: 6, warmOps: 4},
		setup:       setupTrain,
	},
	{
		name:        "churn_live",
		why:         "live-migrating bert run over loopback, five scale events per op: rendezvous, frames, shards and networked reduce; GEMMs below the kernel pool's threshold",
		refBlockSec: 3.1,
		full:        sizing{setups: 3, blockOps: 100, warmOps: 20},
		traced:      sizing{blocks: 2, blockOps: 25, warmOps: 5},
		toy:         sizing{setups: 1, blocks: 1, blockOps: 2, warmOps: 1},
		setup:       setupChurn,
	},
	{
		name:        "serve_sat",
		why:         "64 closed-loop callers saturating two tiny models at MaxBatch 32: queue, batch collect and reply path; kernels do little",
		refBlockSec: 2.3,
		full:        sizing{setups: 3, blockOps: 768 * 1024, warmOps: 512 * 1024},
		traced:      sizing{blocks: 2, blockOps: 32 * 1024, warmOps: 128 * 1024},
		toy:         sizing{setups: 1, blocks: 1, blockOps: 4096, warmOps: 2048},
		setup:       setupServe,
	},
	{
		name:        "plane_replay",
		why:         "3,072-GPU four-team control plane replaying a tenant trace with borrowing and reclaim: only controlplane and sched run",
		refBlockSec: 3.0,
		full:        sizing{setups: 3, blockOps: 750, warmOps: 500, jobs: 1000},
		traced:      sizing{blocks: 1, blockOps: 750, warmOps: 500, jobs: 1000},
		toy:         sizing{setups: 1, blocks: 1, blockOps: 60, warmOps: 20, jobs: 80},
		setup:       setupPlane,
	},
}

// minBlocks is the fewest blocks a run keeps however short --seconds is: a
// median across fewer does not hold still.
const minBlocks = 7

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sized turns --seconds into a block count for the full sizing.
func (w workloadDef) sized(seconds int) sizing {
	sz := w.full
	sz.blocks = max(minBlocks, int(float64(seconds)/w.refBlockSec))
	return sz
}

// metricDef names one end-to-end metric; bound mirrors BENCHMARK.json.
type metricDef struct {
	name, unit string
	higher     bool
	bound      float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"op_ms_p50", "ms", false, 0.25},
	{"op_ms_tail", "ms", false, 0.25},
	{"work_per_s", "1/s", true, 0.25},
	{"cpu_ms_per_op", "ms", false, 0.25},
	{"allocs_per_op", "count", false, 0.04},
	{"bytes_per_op", "B", false, 0.04},
	{"rss_mb", "MB", false, 0.15},
}

// runReport is everything one run of one workload measured.
type runReport struct {
	setups    []float64 // seconds, one per set-up repetition
	blocks    []blockStat
	attempted int
	failed    int
	oracle    error
}

// blockColumns are the end-to-end metrics that are medians across blocks.
var blockColumns = []struct {
	metric string
	get    func(blockStat) float64
}{
	{"op_ms_p50", func(b blockStat) float64 { return b.p50 }},
	{"op_ms_tail", func(b blockStat) float64 { return b.tail }},
	{"work_per_s", func(b blockStat) float64 { return b.workPerS }},
	{"cpu_ms_per_op", func(b blockStat) float64 { return b.cpuMs }},
	{"allocs_per_op", func(b blockStat) float64 { return b.allocs }},
	{"bytes_per_op", func(b blockStat) float64 { return b.bytes }},
	{"rss_mb", func(b blockStat) float64 { return b.rssMB }},
}

func (r runReport) metrics() map[string]float64 {
	m := map[string]float64{"setup_s": median(r.setups)}
	for _, c := range blockColumns {
		m[c.metric] = median(column(r.blocks, c.get))
	}
	return m
}

// runWorkload sets the workload up sz.setups times (the last instance is the
// one measured), runs the blocks, then the oracle.
func runWorkload(w workloadDef, seed uint64, sz sizing, rec *recorder) (runReport, error) {
	var rep runReport
	var inst instance
	for i := 0; i < sz.setups; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := now()
		var err error
		if inst, err = w.setup(seed, sz); err != nil {
			return rep, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		rep.setups = append(rep.setups, since(t0).Seconds())
	}
	defer inst.close()
	for b := 0; b < sz.blocks; b++ {
		st := measureBlock(func() blockResult { return inst.block(rec) })
		rep.blocks = append(rep.blocks, st)
		rep.attempted += st.ops
		rep.failed += st.failed
	}
	rep.oracle = inst.check()
	return rep, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: train_conv, churn_live, serve_sat or plane_replay")
	seed := flag.Uint64("seed", 1, "seed of every generated input: model init, data order, request rows, tenant trace")
	seconds := flag.Int("seconds", 20, "measured time to aim for on the reference box; buys whole blocks, never fewer than 7")
	trace := flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics and writes the span file")
	aa := flag.Bool("aa", false, "self-check: run every workload twice and fail if an end-to-end metric differs by more than its bound")
	flag.Parse()

	if *aa {
		os.Exit(selfCheck(*seed, *seconds))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	printMachine()
	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, *seed)
	} else {
		res, err = untracedRun(w, *seed, w.sized(*seconds))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// untracedRun is the run the end-to-end metrics come from.
func untracedRun(w workloadDef, seed uint64, sz sizing) (result, error) {
	rep, err := runWorkload(w, seed, sz, nil)
	if err != nil {
		return result{}, err
	}
	printBlocks(w, rep)
	if rep.oracle != nil {
		fmt.Println("oracle FAILED:", rep.oracle)
	}
	res := result{
		Correct: rep.oracle == nil, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricValue{},
	}
	m := rep.metrics()
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{m[d.name], d.unit}
	}
	return res, nil
}

// printBlocks shows each block and the block-to-block quartiles, so that a
// noisy host can be told from a noisy workload.
func printBlocks(w workloadDef, rep runReport) {
	fmt.Printf("%s: set-up %.3fs (median of %.3f), %d blocks x %d ops, tail = p%d, failed %d of %d, VmHWM %.1f MB\n",
		w.name, median(rep.setups), rep.setups, len(rep.blocks), rep.blocks[0].ops,
		tailPercentile(rep.blocks[0].ops-rep.blocks[0].failed), rep.failed, rep.attempted, procStatusMB("VmHWM:"))
	row := func(label string, cell func(xs []float64) float64, format string) {
		fmt.Printf("%5s", label)
		for _, c := range blockColumns {
			fmt.Printf(format, cell(column(rep.blocks, c.get)))
		}
		fmt.Println()
	}
	fmt.Printf("%5s", "block")
	for _, c := range blockColumns {
		fmt.Printf(" %14s", c.metric)
	}
	fmt.Println()
	for i := range rep.blocks {
		row(fmt.Sprint(i), func(xs []float64) float64 { return xs[i] }, " %14.6g")
	}
	row("q1", func(xs []float64) float64 { q, _, _ := quartiles(xs); return q }, " %14.6g")
	row("q2", func(xs []float64) float64 { _, q, _ := quartiles(xs); return q }, " %14.6g")
	row("q3", func(xs []float64) float64 { _, _, q := quartiles(xs); return q }, " %14.6g")
	row("iqr%", func(xs []float64) float64 { return 100 * spread(xs) }, " %14.2f")
}

// printMachine records what the numbers were taken on.
func printMachine() {
	fmt.Printf("machine: cpu=%q nproc=%d GOMAXPROCS=%d isa=%s kernel_workers=%d go=%s commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), kernels.ActiveISA(), kernels.Parallelism(),
		runtime.Version(), commit())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a checkout without .git does not).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// selfCheck is -aa: every workload twice, each run its own process, failing
// when two runs of the same code disagree by more than a metric's bound.
func selfCheck(seed uint64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bad := 0
	for _, w := range workloads {
		var runs [2]result
		for i := range runs {
			out, err := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds)).Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &runs[i]); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: bad result line: %v\n", w.name, i, err)
				return 1
			}
			if !runs[i].Correct || runs[i].Failed != 0 {
				fmt.Printf("A/A %s run %d: correct=%v failed=%d\n", w.name, i, runs[i].Correct, runs[i].Failed)
				bad++
			}
		}
		for _, d := range endToEnd {
			a, b := runs[0].Metrics[d.name].Value, runs[1].Metrics[d.name].Value
			diff := (b - a) / a
			verdict := "ok"
			if diff > d.bound || -diff > d.bound {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("A/A %-13s %-14s %14.5f %14.5f %+7.2f%% (bound %.0f%%) %s\n", w.name, d.name, a, b, 100*diff, 100*d.bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("A/A FAILED: %d disagreements\n", bad)
		return 1
	}
	fmt.Println("A/A passed")
	return 0
}

// traceFile is where the traced run leaves its spans, beside the binary's
// working directory's build outputs.
func traceFile(workload string) string {
	return filepath.Join(".bench_build", "trace-"+workload+".json")
}
