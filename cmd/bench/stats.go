package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest sample with at least q percent of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the two middle values for an even
// count) without disturbing xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles matches Python's statistics.quantiles(xs, n=4): the exclusive
// method, linear interpolation at positions i*(len+1)/4.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s), median(s)
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailPercentile picks the tail a block of n samples can support: the highest
// of p99 / p95 / p90 that leaves at least ten samples beyond it. Blocks too
// small for any of them (toy sizes) fall back to p90.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90} {
		if n*(100-p) >= 10*100 {
			return p
		}
	}
	return 90
}

// blockStat is what one measured block yields.
type blockStat struct {
	ops, failed int
	p50, tail   float64 // ms
	wallMs      float64 // wall per op
	cpuMs       float64 // process CPU per op
	allocs      float64 // heap allocations per op
	bytes       float64 // heap bytes per op
	workPerS    float64
	rssMB       float64 // resident set when the block's last op returned
}

// blockResult is what a workload hands back from one block: the latencies of
// the operations that succeeded (ms, any order), and the counts.
type blockResult struct {
	lat         []float64
	ops, failed int
	work        float64
	after       func() // oracle bookkeeping, run once the block's snapshots are taken
}

// measureBlock runs one block between two snapshots of wall clock, process
// CPU and heap counters. The collector runs first so every block starts from
// the same heap state; nothing between the snapshots allocates on the
// benchmark's side except what run itself does. The resident set is read as
// the block ends, before anything is collected: the process's one VmHWM is a
// maximum, which a single coincidence of collector timing moves by megabytes.
func measureBlock(run func() blockResult) blockStat {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := now()
	r := run()
	wall := since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	rss := procStatusMB("VmRSS:")
	if r.after != nil {
		r.after()
	}

	sort.Float64s(r.lat)
	n := float64(r.ops)
	return blockStat{
		ops: r.ops, failed: r.failed,
		p50:      percentile(r.lat, 50),
		tail:     percentile(r.lat, float64(tailPercentile(len(r.lat)))),
		wallMs:   ms(wall) / n,
		cpuMs:    ms(c1-c0) / n,
		allocs:   float64(m1.Mallocs-m0.Mallocs) / n,
		bytes:    float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		workPerS: r.work / wall.Seconds(),
		rssMB:    rss,
	}
}

// guard turns a panic inside one operation into that operation's failure.
func guard(op func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return op()
}

// column extracts one field of every block.
func column(blocks []blockStat, f func(blockStat) float64) []float64 {
	out := make([]float64, len(blocks))
	for i, b := range blocks {
		out[i] = f(b)
	}
	return out
}

// now and since are the benchmark's clock. detlint guards the determinism
// of the program; a benchmark reads the wall clock by definition, and reads
// it only here.
func now() time.Time {
	//detlint:ignore walltime -- the benchmark's one clock read: it times calls from outside and feeds nothing back into the program
	return time.Now()
}

func since(t time.Time) time.Duration { return now().Sub(t) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatusMB reads one kB field of /proc/self/status: "VmRSS:" is the
// resident set now, "VmHWM:" its peak since the process started.
func procStatusMB(key string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
