package tensor

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/pool"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Size() != 6 || x.Rank() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("bad shape metadata: %v", x.Shape())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New not zero-filled")
		}
	}
}

func TestFromDataAndAtSet(t *testing.T) {
	x := FromData([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if x.At(1, 2) != 6 {
		t.Fatalf("At(1,2)=%v", x.At(1, 2))
	}
	x.Set(9, 0, 1)
	if x.At(0, 1) != 9 {
		t.Fatal("Set failed")
	}
}

func TestFromDataMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromData([]float32{1, 2}, 3)
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	x := FromData([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.Data[0] = 42
	if x.At(0, 0) != 42 {
		t.Fatal("Reshape should share data")
	}
	z := x.Reshape(-1, 2)
	if z.Dim(0) != 2 {
		t.Fatalf("inferred dim = %d", z.Dim(0))
	}
}

func TestReshapeBadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Reshape(3)
}

func TestCloneIndependent(t *testing.T) {
	x := New(3)
	x.Fill(7)
	y := x.Clone()
	y.Data[0] = 1
	if x.Data[0] != 7 {
		t.Fatal("Clone should copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromData([]float32{1, 2, 3}, 3)
	b := FromData([]float32{4, 5, 6}, 3)
	d := a.Clone()
	d.AddInPlace(b)
	if d.Data[1] != 7 {
		t.Fatalf("AddInPlace: %v", d.Data)
	}
	f := a.Clone()
	f.ScaleInPlace(3)
	if f.Data[1] != 6 {
		t.Fatalf("ScaleInPlace: %v", f.Data)
	}
}

func TestBinarySizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).AddInPlace(New(3))
}

func TestEqualBitwise(t *testing.T) {
	a := FromData([]float32{1, float32(math.NaN())}, 2)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone should be bitwise equal (same NaN bits)")
	}
	b.Data[0] = math.Nextafter32(1, 2)
	if a.Equal(b) {
		t.Fatal("one-ulp difference must not compare equal")
	}
	if a.Equal(New(3)) {
		t.Fatal("shape mismatch must not compare equal")
	}
}

func TestEqualCloneProperty(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			vals = []float32{0}
		}
		x := FromData(vals, len(vals))
		return x.Equal(x.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashMatchesEqual(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			vals = []float32{1}
		}
		x := FromData(vals, len(vals))
		y := x.Clone()
		if x.Hash64() != y.Hash64() {
			return false
		}
		y.Data[0] += 1
		// hash should almost surely change when data changes
		return x.Data[0]+1 != x.Data[0] == (x.Hash64() != y.Hash64()) || x.Data[0]+1 == x.Data[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArgMaxRow(t *testing.T) {
	x := FromData([]float32{0, 3, 1, 9, 2, 5}, 2, 3)
	got := x.ArgMaxRow()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRow: %v", got)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromData([]float32{1, 2}, 2)
	if s := small.String(); s == "" {
		t.Fatal("empty String()")
	}
	big := New(100)
	if s := big.String(); s == "" {
		t.Fatal("empty String() for big tensor")
	}
}

func TestNumelNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Numel([]int{2, -1})
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", what)
		}
	}()
	f()
}

// TestScopedHeaderPoisonedAfterRelease: a scoped tensor, and a Reshape view
// of one, are dead after the scope's ReleaseAll — indexing either panics
// instead of reading a buffer the arena may have handed to someone else,
// and Shape() reads the poison.
func TestScopedHeaderPoisonedAfterRelease(t *testing.T) {
	s := pool.NewScope()
	x := NewScoped(s, 2, 3)
	x.Set(7, 1, 2)
	v := x.Reshape(3, 2)
	if v.At(2, 1) != 7 {
		t.Fatalf("view reads %v, want 7", v.At(2, 1))
	}
	s.ReleaseAll()
	for name, d := range map[string]*Tensor{"tensor": x, "view": v} {
		if got := d.Shape(); len(got) != 1 || got[0] != -1 {
			t.Errorf("%s: shape after release %v, want the poison [-1]", name, got)
		}
		if d.Size() != 0 {
			t.Errorf("%s: %d elements after release", name, d.Size())
		}
		mustPanic(t, name+" At", func() { d.At(0) })
		mustPanic(t, name+" Data", func() { _ = d.Data[0] })
		mustPanic(t, name+" Numel", func() { Numel(d.Shape()) })
	}
}

// TestScopedHeadersReusedAcrossSteps: a scope that repeats the same work
// step after step hands out the same headers, views included, so its slab
// stops growing after the first step (core's TestTrainStepAllocRegression
// counts what a whole step allocates). A nil scope still takes every header
// from the heap.
func TestScopedHeadersReusedAcrossSteps(t *testing.T) {
	s := pool.NewScope()
	step := func() {
		for i := 0; i < 3*slabChunk/2; i++ {
			x := NewScopedUninit(s, 2, 3, 4, 5)
			x.Reshape(6, -1).CloneScoped(s)
		}
		s.ReleaseAll()
	}
	step()
	chunks := len(slabOf(s).chunks)
	if chunks != 5 {
		t.Fatalf("%d chunks after one step of %d headers, want 5", chunks, 3*3*slabChunk/2)
	}
	for i := 0; i < 10; i++ {
		step()
	}
	if got := len(slabOf(s).chunks); got != chunks {
		t.Errorf("slab grew from %d to %d chunks across repeated steps", chunks, got)
	}
	if a := testing.AllocsPerRun(10, func() { NewScopedUninit(nil, 4).Reshape(2, 2) }); a != 3 {
		t.Errorf("nil scope: %v allocations for a tensor and a view, want 3 (a buffer and two headers)", a)
	}
}

// TestNewBlock: a block's tensors have their shapes, start zero, and are
// capped views that do not overlap, so writing or growing one cannot reach
// another.
func TestNewBlock(t *testing.T) {
	shapes := [][]int{{2, 3}, {4}, {1, 2, 1, 2, 2}, {}}
	ts := NewBlock(len(shapes), func(i int) []int { return shapes[i] })
	for i, x := range ts {
		if !reflect.DeepEqual(x.Shape(), shapes[i]) {
			t.Fatalf("tensor %d has shape %v, want %v", i, x.Shape(), shapes[i])
		}
		if x.Size() != Numel(shapes[i]) || cap(x.Data) != x.Size() {
			t.Fatalf("tensor %d: %d elements in a view of capacity %d, want %d", i, x.Size(), cap(x.Data), Numel(shapes[i]))
		}
		for _, v := range x.Data {
			if v != 0 {
				t.Fatalf("tensor %d is not zero-filled", i)
			}
		}
		x.Fill(float32(i + 1))
	}
	for i, x := range ts {
		for _, v := range x.Data {
			if v != float32(i+1) {
				t.Fatalf("tensor %d holds %v after the block was filled per tensor: views overlap", i, v)
			}
		}
	}
}

// TestCarver: a carver sized exactly carves from its own buffer, and one that
// runs out, the zero Carver included, takes chunks whose views are still
// capped, zero-filled and disjoint, a tensor larger than a 1024-float chunk
// included.
func TestCarver(t *testing.T) {
	shapes := [][]int{{2, 3}, {1025}, {4}, {}, {1, 2, 1, 2, 2}}
	total := 0
	for _, s := range shapes {
		total += Numel(s)
	}
	sized := NewCarver(total, len(shapes))
	buf, off := sized.data, 0
	for _, s := range shapes {
		x := sized.Next(s...)
		if x.Size() > 0 && &x.Data[0] != &buf[off] {
			t.Fatalf("a carver sized for its tensors took new storage for shape %v", s)
		}
		off += x.Size()
	}
	if len(sized.data) != 0 || len(sized.hs) != 0 {
		t.Fatalf("a carver sized exactly has %d floats and %d headers left", len(sized.data), len(sized.hs))
	}
	var grown Carver
	var ts []*Tensor
	for range 100 {
		for _, s := range shapes {
			ts = append(ts, grown.Next(s...))
		}
	}
	for i, x := range ts {
		want := shapes[i%len(shapes)]
		if !reflect.DeepEqual(x.Shape(), want) || x.Size() != Numel(want) || cap(x.Data) != x.Size() {
			t.Fatalf("tensor %d: shape %v, %d elements, capacity %d; want shape %v", i, x.Shape(), x.Size(), cap(x.Data), want)
		}
		for _, v := range x.Data {
			if v != 0 {
				t.Fatalf("tensor %d is not zero-filled", i)
			}
		}
		x.Fill(float32(i + 1))
	}
	for i, x := range ts {
		for _, v := range x.Data {
			if v != float32(i+1) {
				t.Fatalf("tensor %d holds %v after each tensor was filled: views overlap", i, v)
			}
		}
	}
}
