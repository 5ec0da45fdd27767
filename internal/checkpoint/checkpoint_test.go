package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestScalarRoundTrip(t *testing.T) {
	w := NewWriter()
	w.PutUint64(42)
	w.PutInt(-7)
	w.PutBool(true)
	w.PutBool(false)
	w.PutFloat64(3.14159)
	w.PutString("easyscale")

	r := NewReader(w.Bytes())
	if v, _ := r.Uint64(); v != 42 {
		t.Fatal("uint64")
	}
	if v, _ := r.Int(); v != -7 {
		t.Fatal("int")
	}
	if v, _ := r.Bool(); !v {
		t.Fatal("bool true")
	}
	if v, _ := r.Bool(); v {
		t.Fatal("bool false")
	}
	if v, _ := r.Float64(); v != 3.14159 {
		t.Fatal("float64")
	}
	if v, _ := r.String(); v != "easyscale" {
		t.Fatal("string")
	}
	if r.Remaining() != 0 {
		t.Fatal("unread bytes left")
	}
}

func TestSliceRoundTripProperty(t *testing.T) {
	f := func(fs []float32, is []int16) bool {
		ints := make([]int, len(is))
		for i, v := range is {
			ints[i] = int(v)
		}
		w := NewWriter()
		w.PutFloat32s(fs)
		w.PutInts(ints)
		r := NewReader(w.Bytes())
		gf, err := r.Float32s()
		if err != nil || len(gf) != len(fs) {
			return false
		}
		for i := range fs {
			if math.Float32bits(gf[i]) != math.Float32bits(fs[i]) {
				return false
			}
		}
		gi, err := r.Ints()
		if err != nil || len(gi) != len(ints) {
			return false
		}
		for i := range ints {
			if gi[i] != ints[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// readTensor reads a tensor written by PutTensor into a tensor of its own.
func readTensor(r *Reader) (*tensor.Tensor, error) {
	shape, err := r.Ints()
	if err != nil {
		return nil, err
	}
	numel, err := r.checkShape(shape)
	if err != nil {
		return nil, err
	}
	t := tensor.New(shape[:len(shape):len(shape)]...)
	if t.Size() != numel {
		return nil, ErrCorrupt
	}
	return t, r.Float32sInto(t.Data)
}

func TestTensorRoundTripBitwise(t *testing.T) {
	src := tensor.New(3, 4)
	s := rng.New(9)
	for i := range src.Data {
		src.Data[i] = s.NormFloat32()
	}
	src.Data[0] = float32(math.NaN())
	src.Data[1] = float32(math.Inf(1))

	w := NewWriter()
	w.PutTensor(src)
	r := NewReader(w.Bytes())
	got, err := readTensor(r)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(src) {
		t.Fatal("tensor round trip not bitwise (NaN/Inf must survive)")
	}
}

func TestTensorInto(t *testing.T) {
	src := tensor.FromData([]float32{1, 2, 3, 4}, 2, 2)
	w := NewWriter()
	w.PutTensor(src)
	dst := tensor.New(2, 2)
	if err := NewReader(w.Bytes()).TensorInto(dst); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(src) {
		t.Fatal("TensorInto mismatch")
	}
	// size mismatch
	w2 := NewWriter()
	w2.PutTensor(src)
	if err := NewReader(w2.Bytes()).TensorInto(tensor.New(3)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
}

func TestRNGStateRoundTrip(t *testing.T) {
	s := rng.New(123)
	s.Uint64()
	st := s.State()
	w := NewWriter()
	w.PutRNGState(st)
	got, err := NewReader(w.Bytes()).RNGState()
	if err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Fatal("RNG state round trip mismatch")
	}
	var a, b rng.Stream
	a.SetState(got)
	b.SetState(st)
	if a.Uint64() != b.Uint64() {
		t.Fatal("restored streams diverge")
	}
}

func TestTruncationErrors(t *testing.T) {
	w := NewWriter()
	ones := tensor.New(8)
	ones.Fill(1)
	w.PutTensor(ones)
	full := w.Bytes()
	for cut := 0; cut < len(full); cut += 5 {
		r := NewReader(full[:cut])
		if _, err := readTensor(r); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestCorruptLengthRejected(t *testing.T) {
	w := NewWriter()
	w.PutInt(1 << 40) // absurd length prefix
	if _, err := NewReader(w.Bytes()).Float32s(); !errors.Is(err, ErrCorrupt) {
		t.Fatal("oversized length prefix must be rejected")
	}
	w2 := NewWriter()
	w2.PutInt(-3)
	if _, err := NewReader(w2.Bytes()).Ints(); !errors.Is(err, ErrCorrupt) {
		t.Fatal("negative length prefix must be rejected")
	}
	w3 := NewWriter()
	w3.PutInt(-1)
	if _, err := NewReader(w3.Bytes()).String(); !errors.Is(err, ErrCorrupt) {
		t.Fatal("negative string length must be rejected")
	}
}

func TestWriterLen(t *testing.T) {
	w := NewWriter()
	if w.Len() != 0 {
		t.Fatal("fresh writer should be empty")
	}
	w.PutUint64(1)
	if w.Len() != 8 {
		t.Fatalf("Len = %d, want 8", w.Len())
	}
}

// TestWriterReuseAndByteViews: a Writer that is Reset keeps its capacity and
// its reserved prefix; PutBytes is PutString's layout; Reader.Bytes is a view
// that an append cannot grow into its neighbours; and a length no buffer could
// hold — one that would overflow the offset sum — is corruption, not a panic.
func TestWriterReuseAndByteViews(t *testing.T) {
	var w Writer
	w.Grow(64)
	w.PutBytes([]byte("abc"))
	w.PutInt(7)
	viaString := NewWriter()
	viaString.PutString("abc")
	viaString.PutInt(7)
	if !bytes.Equal(w.Bytes(), viaString.Bytes()) {
		t.Fatal("PutBytes and PutString disagree on the layout")
	}

	r := NewReader(w.Bytes())
	view, err := r.Bytes()
	if err != nil || string(view) != "abc" || cap(view) != 3 {
		t.Fatalf("Bytes: %q cap %d err %v", view, cap(view), err)
	}
	_ = append(view, 0xFF)
	if n, err := r.Int(); err != nil || n != 7 {
		t.Fatalf("an append to the view reached the next field: %d %v", n, err)
	}

	before := cap(w.Bytes())
	w.Reset(5)
	if got := w.Bytes(); len(got) != 5 || cap(got) != before || !bytes.Equal(got, make([]byte, 5)) {
		t.Fatalf("Reset(5): len %d cap %d (was %d) bytes %v", len(got), cap(got), before, got)
	}

	huge := NewWriter()
	huge.PutInt(math.MaxInt64)
	huge.PutInt(1)
	if _, err := NewReader(huge.Bytes()).String(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("String with an overflowing length: %v", err)
	}
	if _, err := NewReader(huge.Bytes()).Bytes(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Bytes with an overflowing length: %v", err)
	}
}
