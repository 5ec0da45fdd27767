package data_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/rng"
)

// loaderHash draws the first 64 batches of a seed-1 loader over the named
// workload's training set — four ESTs at batch 32, so 16 global steps cross
// the 8-step epoch boundary twice, with EST 2 prefetching ahead — and hashes
// every input bit and label.
func loaderHash(t *testing.T, model string) uint64 {
	t.Helper()
	w, err := models.Build(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	const world, batch = 4, 32
	l := data.NewLoader(w.Dataset, data.NewElasticSampler(w.Dataset.Len(), world, batch, 1), 2, 1)
	h := fnv.New64a()
	var word [4]byte
	put := func(v uint32) {
		word[0], word[1], word[2], word[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(word[:])
	}
	step, epoch := 0, 0
	for n := 0; n < 64; step++ {
		if step == l.Sampler.StepsPerEpoch() {
			step = 0
			epoch++
			l.SetEpoch(epoch)
		}
		l.Prefetch(2, 3)
		for r := 0; r < world; r, n = r+1, n+1 {
			x, labels := l.Batch(step, r)
			for _, v := range x.Data {
				put(math.Float32bits(v))
			}
			for _, lb := range labels {
				put(uint32(lb))
			}
		}
	}
	if epoch == 0 {
		t.Fatal("the draw never crossed an epoch boundary")
	}
	return h.Sum64()
}

// TestLoaderGolden pins the bits the loader draws for an image and a token
// workload: item streams, augmentation, epoch shuffles and the prefetch
// queue all feed the hash, so any change to how a batch is derived shows.
func TestLoaderGolden(t *testing.T) {
	for model, want := range map[string]uint64{
		"resnet50": 0xb99af337cc2e0a65,
		"bert":     0xc97dbb3a64952625,
	} {
		if got := loaderHash(t, model); got != want {
			t.Errorf("%s: loader hash %#016x, want %#016x", model, got, want)
		}
	}
}

// TestIndexedMatchesNamed: the per-item derivation is NewNamed over the
// formatted name, digit for digit, including negative indices — and, unlike
// it, allocates nothing.
func TestIndexedMatchesNamed(t *testing.T) {
	if a := testing.AllocsPerRun(10, func() { s := rng.Indexed(5, "item-", 1<<40); s.Uint64() }); a != 0 {
		t.Errorf("Indexed allocates %v objects per call, want 0", a)
	}
	for _, p := range []string{"item-", "tok-", "inter-", ""} {
		for _, i := range []int{0, 9, 10, 1023, 1 << 40, -7, math.MinInt64} {
			got := rng.Indexed(5, p, i)
			want := rng.NewNamed(5, fmt.Sprintf(p+"%d", i))
			if got.State() != want.State() {
				t.Errorf("Indexed(5, %q, %d) != NewNamed(5, %q)", p, i, fmt.Sprintf(p+"%d", i))
			}
		}
	}
}
