package workload

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/rng"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(50, 60, 7)
	b := Generate(50, 60, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace generation must be deterministic per seed")
		}
	}
	c := Generate(50, 60, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateShape(t *testing.T) {
	jobs := Generate(200, 60, 1)
	if len(jobs) != 200 {
		t.Fatal("count")
	}
	prev := 0.0
	sizes := map[int]int{}
	names := map[string]bool{}
	for _, n := range models.Names() {
		names[n] = true
	}
	for _, j := range jobs {
		if j.ArrivalSec < prev {
			t.Fatal("arrivals must be non-decreasing")
		}
		prev = j.ArrivalSec
		if !names[j.Model] {
			t.Fatalf("unknown model %s", j.Model)
		}
		if j.WorkSteps <= 0 {
			t.Fatal("work must be positive")
		}
		sizes[j.MaxP]++
		w := models.MustBuild(j.Model, 0)
		if j.HomogeneousOnly != w.UsesVendorKernels {
			t.Fatal("homogeneity flag must follow the vendor-kernel scan")
		}
	}
	if sizes[1] == 0 || sizes[16] == 0 {
		t.Fatalf("size distribution degenerate: %v", sizes)
	}
	if sizes[1] < sizes[16] {
		t.Fatalf("small jobs should dominate: %v", sizes)
	}
}

func TestServingLoadDiurnal(t *testing.T) {
	const total = 3000
	load := ServingLoad(2*1440, total, 42)
	st := Stats(load)
	if st.Min < 0 || st.Max > total {
		t.Fatalf("load out of range: %+v", st)
	}
	// the paper's Figure 1: the idle-vs-peak gap approaches 2,000 GPUs on a
	// ~3,000 GPU fleet
	if st.Gap < 1200 {
		t.Fatalf("diurnal gap too small: %+v", st)
	}
	if st.Mean < total/4 || st.Mean > 3*total/4 {
		t.Fatalf("mean load implausible: %+v", st)
	}
}

func TestServingLoadDeterministic(t *testing.T) {
	a := ServingLoad(100, 1000, 5)
	b := ServingLoad(100, 1000, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("serving load must be deterministic per seed")
		}
	}
}

// TestServingGangsLevelSplit: at every minute the live gangs hold exactly
// ⌈demand/8⌉·8 GPUs, and each gang is one maximal run of minutes in which its
// level is needed, on hand-made, random-walk and diurnal demand.
func TestServingGangsLevelSplit(t *testing.T) {
	perMin := 60 * servingGang * models.MustBuild("resnet50", 0).StepRate(device.SpecOf(device.V100).PeakGFLOPS)
	loads := [][]int{nil, {0, 0}, {1, 8, 9, 0, 17, 16, 3}, ServingLoad(1440, 3000, 42)}
	s := rng.NewNamed(7, "levels")
	for range 20 {
		load, v := make([]int, 200), 0
		for m := range load {
			v = max(0, min(100, v+s.Intn(41)-20))
			load[m] = v
		}
		loads = append(loads, load)
	}
	for li, load := range loads {
		need := func(m int) int {
			if m < 0 || m >= len(load) {
				return 0
			}
			return (load[m] + servingGang - 1) / servingGang
		}
		held := make([]int, len(load))
		for _, g := range ServingGangs(load) {
			var a, k int
			if _, err := fmt.Sscanf(g.ID, "serve-%d-%d", &a, &k); err != nil {
				t.Fatalf("load %d: gang ID %q: %v", li, g.ID, err)
			}
			b := a + int(math.Round(g.WorkSteps/perMin))
			if g.ArrivalSec != float64(60*a) || g.MinGPUs != servingGang || g.MaxP != servingGang || g.RequestedType != device.V100 {
				t.Fatalf("load %d: gang %+v is not an 8-V100 gang arriving at minute %d", li, g, a)
			}
			if b <= a || need(a-1) >= k || need(b) >= k {
				t.Fatalf("load %d: gang %s covers minutes [%d, %d), not a maximal run of level %d", li, g.ID, a, b, k)
			}
			for m := a; m < b; m++ {
				if need(m) < k {
					t.Fatalf("load %d: gang %s holds level %d at minute %d, which needs %d gangs", li, g.ID, k, m, need(m))
				}
				held[m] += g.MaxP
			}
		}
		for m := range load {
			if held[m] != need(m)*servingGang {
				t.Fatalf("load %d minute %d: gangs hold %d GPUs for demand %d", li, m, held[m], load[m])
			}
		}
	}
}

func TestStatsEmpty(t *testing.T) {
	if st := Stats(nil); st.Max != 0 || st.Gap != 0 {
		t.Fatal("empty stats should be zero")
	}
}
