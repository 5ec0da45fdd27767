package comm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/kernels"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestBuildInitialPlanReverseOrder(t *testing.T) {
	plan := BuildInitialPlan([]int{10, 20, 30}, 100)
	if len(plan.Buckets) != 1 {
		t.Fatalf("buckets = %d, want 1", len(plan.Buckets))
	}
	want := []int{2, 1, 0}
	for i, w := range want {
		if plan.Buckets[0][i] != w {
			t.Fatalf("bucket order %v, want %v", plan.Buckets[0], want)
		}
	}
}

func TestBuildPlanCapacitySplits(t *testing.T) {
	plan := BuildInitialPlan([]int{10, 10, 10, 10}, 25)
	if len(plan.Buckets) != 2 {
		t.Fatalf("buckets = %d, want 2", len(plan.Buckets))
	}
	// oversized parameter still gets its own bucket
	plan = BuildInitialPlan([]int{100, 5}, 25)
	if len(plan.Buckets) != 2 {
		t.Fatalf("oversized: buckets = %d, want 2", len(plan.Buckets))
	}
}

func TestPlanCoversAllParamsProperty(t *testing.T) {
	f := func(sizesRaw []uint8, capRaw uint8) bool {
		if len(sizesRaw) == 0 {
			return true
		}
		sizes := make([]int, len(sizesRaw))
		for i, s := range sizesRaw {
			sizes[i] = int(s%50) + 1
		}
		capElems := int(capRaw%100) + 1
		plan := BuildInitialPlan(sizes, capElems)
		seen := make([]bool, len(sizes))
		for _, b := range plan.Buckets {
			for _, pi := range b {
				if seen[pi] {
					return false
				}
				seen[pi] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPlanFromReadyOrderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-permutation")
		}
	}()
	BuildPlanFromReadyOrder([]int{1, 2, 3}, []int{0, 0, 1}, 10)
}

func TestPlanCloneEqual(t *testing.T) {
	p := BuildInitialPlan([]int{5, 5, 5}, 7)
	c := p.Clone()
	if !p.Equal(c) {
		t.Fatal("clone must equal original")
	}
	c.Buckets[0][0] = 99
	if p.Equal(c) {
		t.Fatal("mutated clone must differ")
	}
	if p.Equal(Plan{}) {
		t.Fatal("empty plan must differ")
	}
}

func randBufs(seed uint64, p, l int) [][]float32 {
	s := rng.New(seed)
	out := make([][]float32, p)
	for i := range out {
		out[i] = make([]float32, l)
		for j := range out[i] {
			out[i][j] = s.NormFloat32() * float32(math.Pow(10, float64(s.Intn(4)-2)))
		}
	}
	return out
}

// ringReduce is RingReduceInto on a fresh destination.
func ringReduce(contribs [][]float32) []float32 {
	out := make([]float32, len(contribs[0]))
	RingReduceInto(out, contribs)
	return out
}

func TestRingReduceCorrectness(t *testing.T) {
	bufs := randBufs(1, 4, 103)
	got := ringReduce(bufs)
	for e := range got {
		var ref float64
		for _, b := range bufs {
			ref += float64(b[e])
		}
		if math.Abs(float64(got[e])-ref) > 1e-3*(math.Abs(ref)+1) {
			t.Fatalf("ring reduce element %d = %v, ref %v", e, got[e], ref)
		}
	}
}

func TestRingReduceDependsOnParticipantCount(t *testing.T) {
	// the same four logical contributions reduced as 4 participants vs as 2
	// pre-accumulated pairs give bitwise different results (in general)
	bufs := randBufs(2, 4, 4096)
	asFour := ringReduce(bufs)
	pairA := SequentialReduce(bufs[:2])
	pairB := SequentialReduce(bufs[2:])
	asTwo := ringReduce([][]float32{pairA, pairB})
	same := true
	for i := range asFour {
		if math.Float32bits(asFour[i]) != math.Float32bits(asTwo[i]) {
			same = false
			break
		}
	}
	if same {
		t.Skip("reduction orders agreed bitwise on this input (rare)")
	}
}

func TestRingReduceDeterministicForFixedTopology(t *testing.T) {
	bufs := randBufs(3, 3, 257)
	a := ringReduce(bufs)
	b := ringReduce(bufs)
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatal("ring reduce must be deterministic for a fixed topology")
		}
	}
}

func TestRingReduceEdgeCases(t *testing.T) {
	RingReduceInto(nil, nil) // no participants: nothing to write, must not panic
	one := ringReduce([][]float32{{1, 2, 3}})
	if one[0] != 1 || one[2] != 3 {
		t.Fatal("single participant should be identity")
	}
}

func TestSequentialReduce(t *testing.T) {
	got := SequentialReduce([][]float32{{1, 2}, {3, 4}, {5, 6}})
	if got[0] != 9 || got[1] != 12 {
		t.Fatalf("sequential reduce: %v", got)
	}
	if SequentialReduce(nil) != nil {
		t.Fatal("empty sequential reduce should be nil")
	}
}

func gradSets(seed uint64, participants int, sizes []int) [][]*tensor.Tensor {
	s := rng.New(seed)
	out := make([][]*tensor.Tensor, participants)
	for i := range out {
		out[i] = make([]*tensor.Tensor, len(sizes))
		for j, sz := range sizes {
			g := tensor.New(sz)
			for k := range g.Data {
				g.Data[k] = s.NormFloat32()
			}
			out[i][j] = g
		}
	}
	return out
}

func TestElasticDDPAllReduceAverages(t *testing.T) {
	sizes := []int{8, 16, 4}
	sets := gradSets(4, 4, sizes)
	// float64 reference of the average
	ref := make([][]float64, len(sizes))
	for j, sz := range sizes {
		ref[j] = make([]float64, sz)
		for k := 0; k < sz; k++ {
			for i := range sets {
				ref[j][k] += float64(sets[i][j].Data[k])
			}
			ref[j][k] /= 4
		}
	}
	d := NewElasticDDP(sizes, 1024)
	d.AllReduce(sets, 4)
	for j := range sizes {
		for k := range ref[j] {
			if math.Abs(float64(sets[0][j].Data[k])-ref[j][k]) > 1e-4*(math.Abs(ref[j][k])+1) {
				t.Fatalf("allreduce param %d elem %d = %v, ref %v", j, k, sets[0][j].Data[k], ref[j][k])
			}
		}
	}
	// all participants hold identical averaged gradients
	for i := 1; i < 4; i++ {
		for j := range sizes {
			if !sets[0][j].Equal(sets[i][j]) {
				t.Fatal("participants must hold identical reduced gradients")
			}
		}
	}
}

func TestElasticDDPPlanAffectsBits(t *testing.T) {
	sizes := []int{512, 512, 512, 512}
	run := func(plan Plan) uint64 {
		sets := gradSets(7, 3, sizes)
		d := NewElasticDDP(sizes, 1024)
		if plan.Buckets != nil {
			d.RestorePlan(plan)
		}
		d.AllReduce(sets, 3)
		var h uint64 = 1469
		for _, g := range sets[0] {
			h ^= g.Hash64()
			h *= 31
		}
		return h
	}
	defaultHash := run(Plan{})
	alt := Plan{Buckets: [][]int{{0, 1}, {2, 3}}}
	altHash := run(alt)
	if defaultHash == altHash {
		t.Skip("bucket layouts agreed bitwise on this input (rare)")
	}
}

func TestElasticDDPRebuildOnceAndDisable(t *testing.T) {
	sizes := []int{4, 4, 4}
	d := NewElasticDDP(sizes, 100)
	if d.Rebuilt() {
		t.Fatal("fresh DDP should not be rebuilt")
	}
	d.MaybeRebuild([]int{1, 0, 2})
	if !d.Rebuilt() {
		t.Fatal("rebuild did not happen")
	}
	p1 := d.Plan()
	d.MaybeRebuild([]int{2, 1, 0}) // no-op
	if !d.Plan().Equal(p1) {
		t.Fatal("second rebuild must be a no-op")
	}

	d2 := NewElasticDDP(sizes, 100)
	d2.RestorePlan(p1)
	if !d2.Plan().Equal(p1) {
		t.Fatal("RestorePlan did not reinstate the plan")
	}
	d2.MaybeRebuild([]int{2, 1, 0})
	if !d2.Plan().Equal(p1) {
		t.Fatal("rebuild must stay disabled after RestorePlan (D1)")
	}
}

func TestElasticDDPMismatchedSetPanics(t *testing.T) {
	d := NewElasticDDP([]int{4, 4}, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.AllReduce(gradSets(1, 2, []int{4}), 2)
}

func TestObservedReadyOrderRespectsGroups(t *testing.T) {
	groups := [][]int{{4, 5}, {2, 3}, {0, 1}}
	for i := 0; i < 20; i++ {
		order := ObservedReadyOrderSeeded(groups, uint64(i))
		if len(order) != 6 {
			t.Fatalf("order length %d", len(order))
		}
		// group membership must be preserved positionally
		if !((order[0] == 4 || order[0] == 5) && (order[2] == 2 || order[2] == 3) && (order[4] == 0 || order[4] == 1)) {
			t.Fatalf("order %v violates group boundaries", order)
		}
	}
}

func TestBackwardGroups(t *testing.T) {
	groups := BackwardGroups([]int{2, 1, 3})
	// layer 2 params are indices 3,4,5; layer 1 is 2; layer 0 is 0,1
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	if groups[0][0] != 3 || groups[0][2] != 5 || groups[1][0] != 2 || groups[2][1] != 1 {
		t.Fatalf("groups content wrong: %v", groups)
	}
}

func TestBucketAccessors(t *testing.T) {
	d := NewElasticDDP([]int{3, 5, 2}, 6)
	if d.NumBuckets() < 2 {
		t.Fatalf("expected multiple buckets, got %d", d.NumBuckets())
	}
	total := 0
	for b := 0; b < d.NumBuckets(); b++ {
		if d.BucketLen(b) == 0 {
			t.Fatal("empty bucket")
		}
		total += d.BucketLen(b)
	}
	if total != 10 {
		t.Fatalf("bucket lengths sum to %d, want 10", total)
	}
	// flatten/unflatten round trip
	grads := gradSets(5, 1, []int{3, 5, 2})[0]
	for b := 0; b < d.NumBuckets(); b++ {
		buf := d.FlattenBucket(b, grads)
		if len(buf) != d.BucketLen(b) {
			t.Fatal("flatten length")
		}
		for i := range buf {
			buf[i] *= 2
		}
		d.UnflattenBucket(b, grads, buf)
	}
	// every element was doubled exactly once
	ref := gradSets(5, 1, []int{3, 5, 2})[0]
	for i := range grads {
		for e := range grads[i].Data {
			if grads[i].Data[e] != 2*ref[i].Data[e] {
				t.Fatalf("param %d elem %d not doubled", i, e)
			}
		}
	}
}

func TestRingChunks(t *testing.T) {
	chunks := RingChunks(10, 3)
	if len(chunks) != 3 || chunks[0] != [2]int{0, 4} || chunks[2] != [2]int{8, 10} {
		t.Fatalf("chunks: %v", chunks)
	}
	if got := RingChunks(5, 1); len(got) != 1 || got[0] != [2]int{0, 5} {
		t.Fatalf("single participant: %v", got)
	}
	if RingChunks(5, 0) != nil {
		t.Fatal("zero participants")
	}
	// chunk boundaries must exactly tile the buffer
	for _, l := range []int{1, 7, 16, 100} {
		for _, p := range []int{1, 2, 3, 8} {
			covered := 0
			for _, c := range RingChunks(l, p) {
				covered += c[1] - c[0]
			}
			if covered != l {
				t.Fatalf("RingChunks(%d,%d) covers %d", l, p, covered)
			}
		}
	}
}

// TestReduceAverageMatchesScalarRingOrder pins the one bucket reduce against
// its definition written out per element: chunk c of ceil(l/p) elements starts
// at participant c mod p and adds the others in ring order, and the sum is
// scaled by 1/divisor — bit for bit, for every participant count 1–9, buffer
// lengths on both sides of the participant count and of the SIMD width, and
// every kernel variant this machine has.
func TestReduceAverageMatchesScalarRingOrder(t *testing.T) {
	prev := kernels.ActiveISA()
	defer kernels.SetISA(prev)
	for _, isa := range kernels.AvailableISAs() {
		if err := kernels.SetISA(isa); err != nil {
			t.Fatal(err)
		}
		s := rng.New(23)
		for p := 1; p <= 9; p++ {
			lengths := []int{1, p - 1, p, p + 1, 2*p + 3}
			for i := 0; i < 12; i++ {
				lengths = append(lengths, 1+s.Intn(700))
			}
			for _, l := range lengths {
				if l < 1 {
					continue
				}
				bufs := randBufs(uint64(1000*p+l), p, l)
				divisor := 1 + s.Intn(9)
				got := ReduceAverage(bufs, divisor)
				if len(got) != l {
					t.Fatalf("%s p=%d: result length %d, want %d", isa, p, len(got), l)
				}

				inv := 1 / float32(divisor)
				chunk := (l + p - 1) / p
				for e := 0; e < l; e++ {
					start := (e / chunk) % p
					sum := bufs[start][e]
					for k := 1; k < p; k++ {
						sum += bufs[(start+k)%p][e]
					}
					if want := sum * inv; math.Float32bits(got[e]) != math.Float32bits(want) {
						t.Fatalf("%s p=%d l=%d divisor=%d element %d: %x, scalar ring order gives %x",
							isa, p, l, divisor, e, math.Float32bits(got[e]), math.Float32bits(want))
					}
				}
				pool.Put(got)
			}
		}
	}
}
