package data

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func imgDS() *SyntheticImages { return NewSyntheticImages(256, 10, 1, 6, 6, 42) }

func TestSyntheticImagesDeterministic(t *testing.T) {
	d1, d2 := imgDS(), imgDS()
	b1 := make([]float32, 36)
	b2 := make([]float32, 36)
	for i := 0; i < 20; i++ {
		l1 := d1.Sample(i, b1, nil)
		l2 := d2.Sample(i, b2, nil)
		if l1 != l2 {
			t.Fatal("labels diverged")
		}
		for j := range b1 {
			if b1[j] != b2[j] {
				t.Fatal("pixel data diverged for identical seeds")
			}
		}
	}
}

func TestSyntheticImagesClassStructure(t *testing.T) {
	d := imgDS()
	buf := make([]float32, 36)
	for i := 0; i < 50; i++ {
		if got := d.Sample(i, buf, nil); got != i%10 {
			t.Fatalf("label(%d) = %d, want %d", i, got, i%10)
		}
	}
	if d.NumClasses() != 10 || d.Len() != 256 {
		t.Fatal("metadata wrong")
	}
}

func TestAugmentationDeterministicGivenState(t *testing.T) {
	d := imgDS()
	a := make([]float32, 36)
	b := make([]float32, 36)
	s := rng.New(7)
	st := s.State()
	d.Sample(3, a, s)
	s.SetState(st)
	d.Sample(3, b, s)
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("same RNG state must give identical augmented samples")
		}
	}
	// advanced state → (almost surely) different augmentation
	d.Sample(3, b, s)
	same := true
	for j := range a {
		if a[j] != b[j] {
			same = false
			break
		}
	}
	if same {
		t.Log("augmentation happened to repeat (possible but unlikely)")
	}
}

func TestInteractionsDataset(t *testing.T) {
	d := NewSyntheticInteractions(1000, 50, 80, 9)
	buf := make([]float32, 2)
	pos := 0
	for i := 0; i < 200; i++ {
		lbl := d.Sample(i, buf, nil)
		if buf[0] < 0 || buf[0] >= 50 || buf[1] < 0 || buf[1] >= 80 {
			t.Fatalf("ids out of range: %v", buf)
		}
		if lbl == 1 {
			pos++
		}
	}
	if pos == 0 || pos == 200 {
		t.Fatalf("degenerate label distribution: %d/200 positive", pos)
	}
}

func TestTokensDataset(t *testing.T) {
	d := NewSyntheticTokens(500, 100, 8, 4, 11)
	buf := make([]float32, 8)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		lbl := d.Sample(i, buf, nil)
		if lbl < 0 || lbl >= 4 {
			t.Fatalf("label %d out of range", lbl)
		}
		seen[lbl] = true
		for _, v := range buf {
			if v < 0 || v >= 100 {
				t.Fatalf("token %v out of vocab", v)
			}
		}
	}
	if len(seen) < 2 {
		t.Fatal("labels not diverse")
	}
}

func TestSamplerPartitionProperties(t *testing.T) {
	f := func(seedRaw uint16, worldRaw, batchRaw uint8) bool {
		world := int(worldRaw%6) + 1
		batch := int(batchRaw%4) + 1
		n := world*batch*4 + int(seedRaw%7) // includes a dropped tail
		s := NewElasticSampler(n, world, batch, uint64(seedRaw))
		steps := s.StepsPerEpoch()
		seen := map[int]bool{}
		for step := 0; step < steps; step++ {
			for r := 0; r < world; r++ {
				for _, idx := range s.Indices(1, step, r) {
					if idx < 0 || idx >= n || seen[idx] {
						return false // out of range or overlapping
					}
					seen[idx] = true
				}
			}
		}
		return len(seen) == steps*world*batch
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerPureFunction(t *testing.T) {
	s1 := NewElasticSampler(128, 4, 8, 5)
	s2 := NewElasticSampler(128, 4, 8, 5)
	// query in different orders; results must match
	a := s1.Indices(2, 3, 1)
	s2.Indices(0, 0, 0)
	s2.Indices(5, 1, 2)
	b := s2.Indices(2, 3, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Indices must be a pure function of (epoch, step, rank)")
		}
	}
}

func TestSamplerEpochsDiffer(t *testing.T) {
	s := NewElasticSampler(128, 2, 8, 5)
	a := s.Indices(0, 0, 0)
	b := s.Indices(1, 0, 0)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("epoch shuffles should differ")
	}
}

func TestSamplerValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewElasticSampler(0, 1, 1, 0) },
		func() { NewElasticSampler(4, 8, 1, 0) },
		func() { NewElasticSampler(64, 2, 4, 0).Indices(0, 0, 5) },
		func() { NewElasticSampler(64, 2, 4, 0).Indices(0, 99, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// snapshot reads the loader's whole State, as a checkpoint does.
func (l *Loader) snapshot() State {
	st := State{Epoch: l.Epoch(), NextStep: make([]int, l.Sampler.World), Streams: make([][]rng.State, l.Sampler.World)}
	for r := range st.Streams {
		st.NextStep[r] = l.Cursor(r)
		st.Streams[r] = make([]rng.State, l.WorkersPerEST)
		for j := range st.Streams[r] {
			st.Streams[r][j] = l.StreamState(r, j)
		}
	}
	return st
}

func newLoader(world, batch, k int) *Loader {
	ds := imgDS()
	s := NewElasticSampler(ds.Len(), world, batch, 42)
	return NewLoader(ds, s, k, 42)
}

func TestLoaderInOrderConsumption(t *testing.T) {
	l := newLoader(2, 4, 2)
	l.Batch(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-order consumption")
		}
	}()
	l.Batch(2, 0)
}

func TestLoaderDeterministicAcrossInstances(t *testing.T) {
	l1 := newLoader(4, 2, 2)
	l2 := newLoader(4, 2, 2)
	for step := 0; step < 5; step++ {
		for r := 0; r < 4; r++ {
			x1, lab1 := l1.Batch(step, r)
			x2, lab2 := l2.Batch(step, r)
			if !x1.Equal(x2) {
				t.Fatal("loader instances diverged")
			}
			for i := range lab1 {
				if lab1[i] != lab2[i] {
					t.Fatal("labels diverged")
				}
			}
		}
	}
}

// TestLoaderConsumptionOrderIrrelevantAcrossRanks: two physical placements
// consume ranks in different interleavings; batches must be identical.
func TestLoaderConsumptionOrderIrrelevantAcrossRanks(t *testing.T) {
	l1 := newLoader(4, 2, 3)
	l2 := newLoader(4, 2, 3)
	got1 := map[[2]int]uint64{}
	got2 := map[[2]int]uint64{}
	// placement 1: rank-major within step
	for step := 0; step < 4; step++ {
		for r := 0; r < 4; r++ {
			x, _ := l1.Batch(step, r)
			got1[[2]int{step, r}] = x.Hash64()
		}
	}
	// placement 2: each rank runs all its steps consecutively (as when one
	// GPU hosts all ESTs and the loader prefetches per EST)
	for r := 3; r >= 0; r-- {
		for step := 0; step < 4; step++ {
			x, _ := l2.Batch(step, r)
			got2[[2]int{step, r}] = x.Hash64()
		}
	}
	for k, v := range got1 {
		if got2[k] != v {
			t.Fatalf("batch %v differs across consumption orders", k)
		}
	}
}

// TestLoaderConcurrentRanksBitwiseEqualsSerial: Batch is safe for concurrent
// calls on distinct ranks — what core.Job.RunStep does when the GPUs of a
// placement compute at once. Every rank draws its batches of two epochs from
// its own goroutine (one of them through the prefetch queue); inputs, labels
// and the final loader state must be bitwise those of a serial loader. Run
// under -race by `make race`.
func TestLoaderConcurrentRanksBitwiseEqualsSerial(t *testing.T) {
	const world = 4
	type drawn struct {
		x      uint64
		labels []int
	}
	ref, l := newLoader(world, 4, 2), newLoader(world, 4, 2)
	steps := l.Sampler.StepsPerEpoch()
	for epoch := 0; epoch < 2; epoch++ {
		if epoch > 0 {
			ref.SetEpoch(epoch)
			l.SetEpoch(epoch)
		}
		l.Prefetch(1, 3)
		got := make([][]drawn, world)
		var wg sync.WaitGroup
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for step := 0; step < steps; step++ {
					x, labels := l.Batch(step, r)
					got[r] = append(got[r], drawn{x.Hash64(), labels})
				}
			}(r)
		}
		wg.Wait()
		for step := 0; step < steps; step++ {
			for r := 0; r < world; r++ {
				x, labels := ref.Batch(step, r)
				if g := got[r][step]; g.x != x.Hash64() || !reflect.DeepEqual(g.labels, labels) {
					t.Fatalf("epoch %d: concurrent batch (%d,%d) differs from serial", epoch, step, r)
				}
			}
		}
	}
	if !reflect.DeepEqual(l.snapshot(), ref.snapshot()) {
		t.Fatal("loader state after concurrent consumption differs from serial")
	}
}

// TestBatchIntoEqualsBatch: BatchInto fills a caller's tensor and labels
// with the bits Batch returns — materialized in place, copied off the
// prefetch queue, across an epoch rollover, and after a mid-epoch Restore
// with batches still pending — and, with the epoch's permutation built,
// allocates nothing when it materializes.
func TestBatchIntoEqualsBatch(t *testing.T) {
	const world, batch = 2, 4
	ref, into := newLoader(world, batch, 2), newLoader(world, batch, 2)
	x, labels := tensor.New(batch, 1, 6, 6), make([]int, batch)
	steps := ref.Sampler.StepsPerEpoch()
	for epoch := 0; epoch < 2; epoch++ {
		if epoch > 0 {
			ref.SetEpoch(epoch)
			into.SetEpoch(epoch)
		}
		for step := 0; step < steps; step++ {
			switch step {
			case 2: // rank 0 of into draws off its queue, rank 1 of ref
				into.Prefetch(0, 5)
				ref.Prefetch(1, 3)
			case steps / 2: // restore into from itself, rank 0's queue not yet drained
				into.Prefetch(0, 3)
				st := into.snapshot()
				into = newLoader(world, batch, 2)
				into.Restore(st)
			}
			for r := 0; r < world; r++ {
				want, wantLabels := ref.Batch(step, r)
				into.BatchInto(x, labels, step, r)
				if !x.Equal(want) || !reflect.DeepEqual(labels, wantLabels) {
					t.Fatalf("epoch %d step %d rank %d: BatchInto differs from Batch", epoch, step, r)
				}
			}
		}
	}
	if !reflect.DeepEqual(into.snapshot(), ref.snapshot()) {
		t.Fatal("loader state after BatchInto differs from Batch's")
	}
	if raceEnabled {
		return // the race build's sync.Pool drops puts at random, so the arena misses
	}
	into.SetEpoch(2)
	step := 0
	if a := testing.AllocsPerRun(5, func() {
		into.BatchInto(x, labels, step, 0)
		step++
	}); a != 0 {
		t.Fatalf("BatchInto allocates %v objects per batch, want 0", a)
	}
}

// TestEpochRolloverInPlace: once a loader has rolled over twice, a rollover
// reseeds the worker streams and reshuffles the sampler's permutation in the
// memory the earlier epochs used.
func TestEpochRolloverInPlace(t *testing.T) {
	l := newLoader(4, 2, 3)
	l.SetEpoch(1)
	epoch := 2
	if a := testing.AllocsPerRun(5, func() {
		l.SetEpoch(epoch)
		epoch++
	}); a != 0 {
		t.Fatalf("SetEpoch allocates %v objects, want 0", a)
	}
}

func TestLoaderPrefetchDoesNotChangeContent(t *testing.T) {
	l1 := newLoader(2, 4, 2)
	l2 := newLoader(2, 4, 2)
	l2.Prefetch(0, 4)
	l2.Prefetch(1, 2)
	for step := 0; step < 6; step++ {
		for r := 0; r < 2; r++ {
			x1, _ := l1.Batch(step, r)
			x2, _ := l2.Batch(step, r)
			if !x1.Equal(x2) {
				t.Fatalf("prefetching changed batch content at step %d rank %d", step, r)
			}
		}
	}
}

func TestLoaderStateRoundTripMidEpoch(t *testing.T) {
	ref := newLoader(2, 4, 2)
	run := newLoader(2, 4, 2)
	// consume a few steps on both
	var want []*tensor.Tensor
	for step := 0; step < 3; step++ {
		for r := 0; r < 2; r++ {
			ref.Batch(step, r)
			run.Batch(step, r)
		}
	}
	// run prefetches ahead, then checkpoints
	run.Prefetch(0, 3)
	st := run.snapshot()

	// reference continues uninterrupted
	for step := 3; step < 6; step++ {
		for r := 0; r < 2; r++ {
			x, _ := ref.Batch(step, r)
			want = append(want, x)
		}
	}

	// a fresh loader restores the snapshot and must reproduce bitwise
	restored := newLoader(2, 4, 2)
	restored.Restore(st)
	i := 0
	for step := 3; step < 6; step++ {
		for r := 0; r < 2; r++ {
			x, _ := restored.Batch(step, r)
			if !x.Equal(want[i]) {
				t.Fatalf("restored loader diverged at step %d rank %d", step, r)
			}
			i++
		}
	}
}

func TestLoaderRestoreValidation(t *testing.T) {
	l := newLoader(2, 4, 2)
	st := l.snapshot()
	bad := newLoader(3, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic restoring mismatched world")
		}
	}()
	bad.Restore(st)
}

func TestLoaderEpochAdvance(t *testing.T) {
	l := newLoader(2, 4, 2)
	x0, _ := l.Batch(0, 0)
	l.SetEpoch(1)
	if l.epoch != 1 {
		t.Fatal("epoch not set")
	}
	x1, _ := l.Batch(0, 0)
	if x0.Equal(x1) {
		t.Fatal("different epochs should yield different first batches")
	}
}

func TestFirstBatchLatencySharingWins(t *testing.T) {
	// 8 data workers per training worker, 4 ESTs: naive 32 workers vs shared 4
	naive := FirstBatchLatency(32)
	shared := FirstBatchLatency(4)
	reduction := 1 - shared.Seconds()/naive.Seconds()
	if reduction < 0.5 || reduction > 0.8 {
		t.Fatalf("sharing reduction %.1f%%, want ≈67%%", reduction*100)
	}
}

func TestMaterializeBatchShape(t *testing.T) {
	ds := imgDS()
	x, labels := MaterializeBatch(ds, []int{0, 1, 2}, nil)
	if x.Dim(0) != 3 || x.Dim(1) != 1 || x.Dim(2) != 6 || x.Dim(3) != 6 {
		t.Fatalf("batch shape %v", x.Shape())
	}
	if len(labels) != 3 {
		t.Fatal("labels length")
	}
}

func TestSliceDataset(t *testing.T) {
	base := NewSyntheticImages(100, 10, 1, 4, 4, 3)
	sl := NewSlice(base, 50, 20)
	if sl.Len() != 20 || sl.NumClasses() != 10 || sl.InputShape()[1] != 4 {
		t.Fatal("slice metadata")
	}
	a := make([]float32, 16)
	b := make([]float32, 16)
	la := sl.Sample(0, a, nil)
	lb := base.Sample(50, b, nil)
	if la != lb {
		t.Fatal("slice label must match base at offset")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("slice data must match base at offset")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on out-of-range slice index")
			}
		}()
		sl.Sample(20, a, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on bad slice range")
			}
		}()
		NewSlice(base, -1, 5)
	}()
}

func TestSamplerPrimeIdempotent(t *testing.T) {
	s := NewElasticSampler(64, 2, 4, 9)
	s.Prime(3)
	want := s.Indices(3, 0, 0)
	s.Prime(3)
	got := s.Indices(3, 0, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("Prime must be idempotent")
		}
	}
}
