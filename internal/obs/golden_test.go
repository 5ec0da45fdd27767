package obs_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenElasticTrace pins the full Perfetto export of a two-phase elastic
// run byte-for-byte. With a FixedClock every timestamp is a pure function of
// the instrumentation call sequence, so this golden file freezes the
// observable shape of the instrumented seams: which spans fire, on which
// tracks, in which order, with which arguments. Regenerate deliberately with
//
//	go test ./internal/obs -run TestGoldenElasticTrace -update
func TestGoldenElasticTrace(t *testing.T) {
	// A FixedClock numbers Now() calls in sequence, and two GPUs computing
	// at once would interleave theirs differently from run to run: pin the
	// step to one GPU at a time.
	kernels.SetParallelism(1)
	defer kernels.SetParallelism(0)
	// The cpu.avx2 counter records the active ISA. Pin the generic kernel —
	// available everywhere — so the golden is machine-independent.
	prevISA := kernels.ActiveISA()
	if err := kernels.SetISA(kernels.ISAGeneric); err != nil {
		t.Fatal(err)
	}
	defer kernels.SetISA(prevISA)

	tr := obs.New(obs.WithClock(&obs.FixedClock{}), obs.WithRingCap(1<<15))

	cfg := core.DefaultConfig(2)
	cfg.BatchPerEST = 2
	j, err := core.NewJob(cfg, "neumf")
	if err != nil {
		t.Fatal(err)
	}
	j.SetTracer(tr)
	if err := j.Attach(core.EvenPlacement(2, device.V100, device.V100)); err != nil {
		t.Fatal(err)
	}
	if err := j.RunSteps(2); err != nil {
		t.Fatal(err)
	}
	if err := j.Scale(core.EvenPlacement(2, device.V100)); err != nil {
		t.Fatal(err)
	}
	if err := j.RunSteps(2); err != nil {
		t.Fatal(err)
	}
	j.Detach()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("golden trace fails the schema check: %v", err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring overflow (%d dropped) would make the golden lossy", tr.Dropped())
	}

	golden := filepath.Join("testdata", "elastic_trace.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace deviates from golden (len %d vs %d); if the change is "+
			"intentional, regenerate with -update\ngot:\n%.2000s",
			buf.Len(), len(want), buf.String())
	}
}
