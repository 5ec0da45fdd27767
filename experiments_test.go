package easyscale

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/elastic"
)

func TestFig01(t *testing.T) {
	res := Fig01ServingLoad(3000, 42)
	if len(res.Rows) == 0 || len(res.Series) != 1 {
		t.Fatalf("fig1 malformed: %+v", res)
	}
	if res.String() == "" {
		t.Fatal("empty render")
	}
}

func TestFig02ShowsInconsistency(t *testing.T) {
	res := Fig02AccuracyCurves("vgg19", 1)
	if len(res.Series) != 12 {
		t.Fatalf("fig2 expects 12 curves, got %d", len(res.Series))
	}
	joined := strings.Join(res.Rows, "\n")
	if !strings.Contains(joined, "spread") {
		t.Fatal("fig2 must report accuracy spread")
	}
}

func TestFig03PerClass(t *testing.T) {
	res := Fig03PerClassVariance("vgg19", 1)
	if len(res.Rows) < 8 {
		t.Fatalf("fig3 rows: %d", len(res.Rows))
	}
}

func TestFig04Gamma(t *testing.T) {
	res := Fig04GammaTrend("vgg19", 2)
	if len(res.Series) != 6 {
		t.Fatalf("fig4 expects 6 curves, got %d", len(res.Series))
	}
}

// TestBaselineDDPIsTheFig9Reference: the repo has one "DDP on 4 GPUs". The
// reference Figures 2–4 compare the elastic frameworks against
// (elastic.FixedDDP) and the reference Figure 9 proves EasyScale equal to
// (fig9Job on its four V100s) are the same bits at the same seed and
// hyper-parameters, on a model with BatchNorm and on one with dropout.
func TestBaselineDDPIsTheFig9Reference(t *testing.T) {
	for _, workload := range []string{"resnet50", "bert"} {
		ref := fig9Job(workload, core.D1, false)
		base, err := elastic.NewBaselineJob(elastic.BaselineConfig{
			Framework: elastic.FixedDDP, Seed: ref.Cfg.Seed, RefWorld: 4,
			BatchPerGPU: ref.Cfg.BatchPerEST, BaseLR: ref.Cfg.LR, Momentum: ref.Cfg.Momentum,
		}, workload, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range []*core.Job{ref, base} {
			if err := j.RunSteps(10); err != nil {
				t.Fatal(err)
			}
		}
		if !core.ParamsEqual(ref, base) {
			t.Fatalf("%s: the baselines' DDP-4 and Figure 9's DDP-4 differ", workload)
		}
	}
}

// TestFig09Headline asserts the paper's divergence pattern quantitatively.
func TestFig09Headline(t *testing.T) {
	res := Fig09LossDiff("resnet50", 8)
	// Series order: D0, D1, D0+D2, D1+D2. Stage maxima are embedded in the
	// series; recompute from them.
	stageMax := func(s Series, stage, per int) float64 {
		m := 0.0
		for i := stage * per; i < (stage+1)*per; i++ {
			if s.Y[i] > m {
				m = s.Y[i]
			}
		}
		return m
	}
	per := 8
	d0 := res.Series[0]
	d1 := res.Series[1]
	d12 := res.Series[3]
	if stageMax(d0, 0, per) != 0 {
		t.Fatal("D0 must match DDP in stage 0")
	}
	if stageMax(d0, 1, per) == 0 {
		t.Fatal("D0 must diverge in stage 1 (bucket mapping lost)")
	}
	if stageMax(d1, 0, per) != 0 || stageMax(d1, 1, per) != 0 {
		t.Fatal("D1 must match DDP-homo through stages 0-1")
	}
	if stageMax(d1, 2, per) == 0 {
		t.Fatal("D1 without D2 must diverge on heterogeneous GPUs (stage 2)")
	}
	for st := 0; st < 3; st++ {
		if stageMax(d12, st, per) != 0 {
			t.Fatalf("D1+D2 must match DDP-heter in all stages, diverged in stage %d", st)
		}
	}
}

func TestFig10Rows(t *testing.T) {
	res := Fig10PackingVsEST("resnet50", 32, 16*1024)
	joined := strings.Join(res.Rows, "\n")
	if !strings.Contains(joined, "OOM") {
		t.Fatal("fig10 must show the packing OOM point")
	}
}

func TestFig11Overhead(t *testing.T) {
	res := Fig11CtxSwitch(3)
	if len(res.Rows) < 9 {
		t.Fatalf("fig11 rows: %d", len(res.Rows))
	}
}

func TestFig12Overhead(t *testing.T) {
	res := Fig12DeterminismOverhead(2)
	joined := strings.Join(res.Rows, "\n")
	if !strings.Contains(joined, "conv-family") {
		t.Fatal("fig12 must summarize conv vs GEMM families")
	}
}

func TestFig13(t *testing.T) {
	res := Fig13GradCopySync(2)
	if len(res.Rows) < 9 {
		t.Fatalf("fig13 rows: %d", len(res.Rows))
	}
}

func TestFig14(t *testing.T) {
	res := Fig14TraceJCT(30, 30, []uint64{11})
	joined := strings.Join(res.Rows, "\n")
	if !strings.Contains(joined, "YARN-CS") || !strings.Contains(joined, "EasyScale-heter") {
		t.Fatal("fig14 must compare the three schedulers")
	}
}

func TestFig15(t *testing.T) {
	res := Fig15AllocTimeline(30, 30, 11)
	if len(res.Series) != 2 {
		t.Fatal("fig15 expects two timelines")
	}
}

func TestFig16(t *testing.T) {
	res := Fig16Production(3000, 42)
	joined := strings.Join(res.Rows, "\n")
	if !strings.Contains(joined, "allocation ratio") {
		t.Fatal("fig16 must report allocation ratio")
	}
}

func TestMotivationAndTable1AndDWS(t *testing.T) {
	if res := MotivationRevocations(2000, 13); len(res.Rows) < 3 {
		t.Fatal("motivation rows")
	}
	if res := Table1Workloads(); len(res.Rows) != 9 {
		t.Fatalf("table1 rows: %d", len(res.Rows))
	}
	if res := DataWorkerSharing(8, 4); len(res.Rows) != 3 {
		t.Fatal("dws rows")
	}
}

// TestPublicAPIQuickstart exercises the facade end to end: elastic training
// with bitwise consistency through the public API.
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.BatchPerEST = 4

	ref, err := NewJob(cfg, "electra")
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Attach(EvenPlacement(4, V100, V100, V100, V100)); err != nil {
		t.Fatal(err)
	}
	if err := ref.RunSteps(10); err != nil {
		t.Fatal(err)
	}

	el, err := NewJob(cfg, "electra")
	if err != nil {
		t.Fatal(err)
	}
	if err := el.Attach(EvenPlacement(4, V100, V100, V100, V100)); err != nil {
		t.Fatal(err)
	}
	if err := el.RunSteps(5); err != nil {
		t.Fatal(err)
	}
	if err := el.Scale(EvenPlacement(4, V100, P100)); err != nil {
		t.Fatal(err)
	}
	if err := el.RunSteps(5); err != nil {
		t.Fatal(err)
	}
	if !ParamsEqual(ref, el) {
		t.Fatal("public API elastic run diverged from fixed-DoP run")
	}
}
