package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// Every workload at toy size, with its oracle, on the two seeds the issue
// names: a change to an API the benchmark calls breaks here, not at the next
// measurement.
func TestWorkloadsToy(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{1, 2} {
			rep, err := runWorkload(w, seed, w.toy, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if rep.oracle != nil {
				t.Errorf("%s seed %d: oracle: %v", w.name, seed, rep.oracle)
			}
			if rep.failed != 0 || rep.attempted != w.toy.blocks*rep.blocks[0].ops {
				t.Errorf("%s seed %d: attempted %d, failed %d", w.name, seed, rep.attempted, rep.failed)
			}
			for name, v := range rep.metrics() {
				if !(v > 0) {
					t.Errorf("%s seed %d: %s = %v, want a positive number", w.name, seed, name, v)
				}
			}
		}
	}
}

// Counts repeat exactly for equal seeds: two replays of the same seed take
// the same decisions, block after block.
func TestPlaneDecisionsRepeatForEqualSeeds(t *testing.T) {
	w, _ := findWorkload("plane_replay")
	decisions := func(seed uint64) float64 {
		inst, err := w.setup(seed, w.toy)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.close()
		return inst.block(nil).work
	}
	if a, b := decisions(1), decisions(1); a != b || a == 0 {
		t.Errorf("seed 1 took %v decisions, then %v", a, b)
	}
}

// A traced block records one root span per op, and the span file passes the
// program's own trace checker.
func TestTracedBlockWritesValidTrace(t *testing.T) {
	w, _ := findWorkload("plane_replay")
	inst, err := w.setup(1, w.toy)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	rec := newRecorder()
	res := inst.block(rec)
	roots := 0
	for _, s := range rec.lanes[0].spans {
		if s.parent == -1 {
			roots++
		} else if rec.lanes[0].spans[s.parent].name != "plane_replay.op" {
			t.Fatalf("span %s has parent %s", s.name, rec.lanes[0].spans[s.parent].name)
		}
	}
	if roots != res.ops {
		t.Fatalf("%d root spans for %d ops", roots, res.ops)
	}
	var buf bytes.Buffer
	if err := rec.writeChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckChromeTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var untraced *recorder
	if ln := untraced.lane("x"); ln != nil || ln.open("y", -1, 0) != -1 {
		t.Fatal("a nil recorder must hand out lanes that record nothing")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{50, 5}, {90, 9}, {95, 10}, {99, 10}, {1, 1}, {100, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing must be NaN")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{786432, 99}, {1000, 99}, {999, 95}, {750, 95}, {500, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 90}, {6, 90},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6}
	if got := median(xs); got != 6 {
		t.Errorf("median = %v, want 6", got)
	}
	if xs[0] != 9 {
		t.Error("median must not reorder its argument")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 37, 29, 22, 16, 11, 7, 4, 2, 1})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if got := spread([]float64{46, 37, 29, 22, 16, 11, 7, 4, 2, 1}); math.Abs(got-27.5/13.5) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 27.5/13.5)
	}
}

// The reported metric is the median across blocks, so one disturbed block
// does not move it.
func TestBlockMedianIgnoresOneBadBlock(t *testing.T) {
	rep := runReport{setups: []float64{1, 5, 2}}
	for _, p50 := range []float64{3.3, 3.4, 9.9, 3.2, 3.3} {
		rep.blocks = append(rep.blocks, blockStat{p50: p50})
	}
	m := rep.metrics()
	if m["op_ms_p50"] != 3.3 || m["setup_s"] != 2 {
		t.Errorf("op_ms_p50 = %v, setup_s = %v; want 3.3 and 2", m["op_ms_p50"], m["setup_s"])
	}
}

func TestMeasureBlock(t *testing.T) {
	ran := false
	st := measureBlock(func() blockResult {
		lat := make([]float64, 0, 100)
		for i := 100; i > 0; i-- {
			lat = append(lat, float64(i))
		}
		return blockResult{lat: lat, ops: 101, failed: 1, work: 200, after: func() { ran = true }}
	})
	if st.p50 != 50 || st.tail != 90 || st.ops != 101 || st.failed != 1 || !ran {
		t.Errorf("block stat %+v, after ran %v", st, ran)
	}
	if err := guard(func() error { panic("boom") }); err == nil {
		t.Error("guard must turn a panic into an error")
	}
}

func TestTenantTraceDeterministic(t *testing.T) {
	a, b, c := tenantTrace(400, 7), tenantTrace(400, 7), tenantTrace(400, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed must give the same trace")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("another seed must give another trace")
	}
	// the seed orders the jobs; it does not choose them
	sum := func(n int, seed uint64) (gpus int, steps float64, floors int) {
		prev := 0.0
		for _, j := range tenantTrace(n, seed) {
			if j.ArrivalSec < prev {
				t.Fatal("arrivals must not go back in time")
			}
			prev = j.ArrivalSec
			gpus += j.MaxP
			steps += j.WorkSteps
			if j.MinGPUs > 0 {
				floors++
			}
		}
		return
	}
	g7, s7, f7 := sum(400, 7)
	g8, s8, f8 := sum(400, 8)
	if g7 != g8 || f7 != f8 || math.Abs(s7-s8) > 1e-6*s7 {
		t.Errorf("seeds 7 and 8 schedule different populations: %d/%v/%d vs %d/%v/%d", g7, s7, f7, g8, s8, f8)
	}
	if f7 != 100 {
		t.Errorf("%d of 400 jobs carry a gang floor, want 100", f7)
	}
	if math.Abs(invNorm(0.975)-1.959964) > 1e-5 || invNorm(0.5) != 0 {
		t.Errorf("invNorm(0.975) = %v, invNorm(0.5) = %v", invNorm(0.975), invNorm(0.5))
	}
}

// BENCHMARK.json at the root of the repository and the tables in this
// package describe the same benchmark.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above this directory:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) || len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the code has %d, %d and %d",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the code", i, spec.Workloads[i].Name, w.name)
		}
	}
	for i, m := range endToEnd {
		s := spec.EndToEnd[i]
		if s.Name != m.name || s.Unit != m.unit || s.Bound != m.bound || (s.Better == "higher") != m.higher {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the code", i, s, m)
		}
	}
	for i, m := range perLayer {
		if s := spec.PerLayer[i]; s.Name != m.name || s.Unit != m.unit {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the code", i, s, m)
		}
	}
}
