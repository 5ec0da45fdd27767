// Package tensor implements the dense float32 tensor that underlies the
// EasyScale training stack.
//
// Tensors are contiguous row-major buffers with an explicit shape. The
// package provides structure and elementwise arithmetic; compute-heavy,
// determinism-sensitive operations (matrix multiply, convolution, large
// reductions) live in internal/kernels where the accumulation order — the
// root cause of floating-point non-determinism the paper identifies — is an
// explicit parameter.
//
// float32 is used throughout, matching GPU training numerics: the narrower
// mantissa makes reordering effects (and hence the determinism levels
// D0/D1/D2) observable at realistic problem sizes.
package tensor

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/pool"
)

// Tensor is a dense row-major float32 array. Data is exported so kernels can
// operate on the raw buffer without copies.
type Tensor struct {
	shape []int
	Data  []float32
	// slab is the header slab of the scope whose buffer Data is, nil for a
	// heap tensor; a Reshape view takes its header from the same slab.
	slab *slab
}

// dims renders a shape for a panic message from a copy of it: formatting the
// caller's slice itself would make it escape, and with it the argument list of
// every constructor call, whether or not anything ever panics.
func dims(shape []int) string { return fmt.Sprint(append([]int(nil), shape...)) }

// Numel returns the number of elements implied by shape. It panics on
// negative dimensions.
func Numel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in shape " + dims(shape))
		}
		n *= d
	}
	return n
}

// header is a Tensor and the storage of its shape in one object: nearly
// every tensor of a training step is a short-lived header over a pooled
// buffer, so the header is what a step would allocate.
type header struct {
	Tensor
	inline [4]int
}

// slab hands out the tensor headers of one pool.Scope, the scope that owns
// the buffers they wrap, from chunks of slabChunk that never move. Its cursor
// rewinds at the scope's ReleaseAll, so a step that repeats the previous
// step's work allocates no header. Like its scope, it is not concurrency-safe.
const slabChunk = 64

type slab struct {
	chunks []*[slabChunk]header
	used   int
}

// poisoned is the shape of a released header. No tensor has a negative
// dimension, so Shape() shows the release, and indexing, Numel and every
// size check of the header fail.
var poisoned = []int{-1}

// slabOf returns the scope's header slab, installing one on first use. A nil
// scope has none: its tensors' headers come from the heap.
func slabOf(s *pool.Scope) *slab {
	if s == nil {
		return nil
	}
	sl, ok := s.Headers.(*slab)
	if !ok {
		sl = &slab{}
		s.Headers = sl
	}
	return sl
}

// wrap returns a tensor header over data with a copy of shape, taken from the
// slab, or from the heap when the slab is nil. Ranks beyond the inline four
// get a shape slice of their own.
func (sl *slab) wrap(data []float32, shape []int) *Tensor {
	var h *header
	if sl == nil {
		h = new(header)
	} else {
		c := sl.used / slabChunk
		if c == len(sl.chunks) {
			sl.chunks = append(sl.chunks, new([slabChunk]header))
		}
		h = &sl.chunks[c][sl.used%slabChunk]
		sl.used++
	}
	h.Data, h.slab = data, sl
	h.shape = append(h.inline[:0], shape...)
	return &h.Tensor
}

// Rewind poisons every header handed out since the last rewind and starts
// handing them out again. A reference kept past the scope's ReleaseAll
// panics on its next index instead of reading a released buffer, until the
// header is handed out again.
func (sl *slab) Rewind() {
	for i := 0; i < sl.used; i++ {
		h := &sl.chunks[i/slabChunk][i%slabChunk]
		h.Data, h.shape = nil, poisoned
	}
	sl.used = 0
}

// New allocates a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor { return NewScoped(nil, shape...) }

// NewBlock allocates n zero-filled heap tensors, the i-th of shape(i), as
// capped views of one buffer with their headers in one array: a set of
// tensors that live and die together costs three allocations, not 2n.
func NewBlock(n int, shape func(i int) []int) []*Tensor {
	total := 0
	for i := range n {
		total += Numel(shape(i))
	}
	c, out := NewCarver(total, n), make([]*Tensor, n)
	for i := range out {
		out[i] = c.Next(shape(i)...)
	}
	return out
}

// Carver hands out zero-filled heap tensors in call order, as capped views of
// one buffer with their headers from one array. Sized exactly by NewCarver it
// allocates nothing more; one that runs out, the zero Carver included, takes
// a chunk at a time, never one tensor. A Carver that has carved must not be
// copied.
type Carver struct {
	data []float32
	hs   []header
}

// NewCarver returns a carver holding floats elements and tensors headers.
func NewCarver(floats, tensors int) Carver {
	return Carver{data: make([]float32, floats), hs: make([]header, tensors)}
}

// Next returns the carver's next tensor, of the given shape.
func (c *Carver) Next(shape ...int) *Tensor {
	sz := Numel(shape)
	if len(c.data) < sz {
		c.data = make([]float32, max(sz, 1024))
	}
	if len(c.hs) == 0 {
		c.hs = make([]header, 32)
	}
	h := &c.hs[0]
	h.Data, c.data, c.hs = c.data[:sz:sz], c.data[sz:], c.hs[1:]
	h.shape = append(h.inline[:0], shape...)
	return &h.Tensor
}

// NewScoped returns a zero-filled tensor whose data buffer and header are
// borrowed from the scope and reclaimed by its ReleaseAll — the hot-path
// variant of New for step-scoped activations and gradients. A nil scope
// degrades to New.
func NewScoped(s *pool.Scope, shape ...int) *Tensor {
	return slabOf(s).wrap(s.Get(Numel(shape)), shape)
}

// NewScopedUninit is NewScoped without the zero fill, for tensors every
// element of which is written before being read.
func NewScopedUninit(s *pool.Scope, shape ...int) *Tensor {
	return slabOf(s).wrap(s.GetUninit(Numel(shape)), shape)
}

// CloneScoped returns a deep copy whose buffer and header are borrowed from
// the scope.
func (t *Tensor) CloneScoped(s *pool.Scope) *Tensor {
	c := NewScopedUninit(s, t.shape...)
	copy(c.Data, t.Data)
	return c
}

// FromData wraps data (no copy) with the given shape. It panics if the
// element counts disagree.
func FromData(data []float32, shape ...int) *Tensor {
	if len(data) != Numel(shape) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %s", len(data), dims(shape)))
	}
	return (*slab)(nil).wrap(data, shape)
}

// Shape returns the tensor shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// offset converts a multi-index to a flat offset.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			// a copy, so idx (the caller's variadic slice) does not escape
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", append([]int(nil), idx...), t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set stores v at the multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies o's data into t. Shapes must have equal element counts.
//
//easyscale:hotpath
func (t *Tensor) CopyFrom(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: CopyFrom size mismatch")
	}
	copy(t.Data, o.Data)
}

// Reshape returns a view sharing data with t under a new shape. One dimension
// may be -1 to be inferred. The view's header comes from where t's did: a
// scoped tensor's view dies with the scope's ReleaseAll.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	r := t.slab.wrap(t.Data, shape)
	ns := r.shape
	infer := -1
	known := 1
	for i, d := range ns {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dims in Reshape")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.Data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dim for reshape %s of %v", dims(shape), t.shape))
		}
		ns[infer] = len(t.Data) / known
	}
	if Numel(ns) != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v incompatible with %v", ns, t.shape))
	}
	return r
}

// Fill sets all elements to v.
//
//easyscale:hotpath
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets all elements to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) binaryCheck(o *Tensor, op string) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, t.shape, o.shape))
	}
}

// AddInPlace accumulates o into t.
//
//easyscale:hotpath
func (t *Tensor) AddInPlace(o *Tensor) {
	t.binaryCheck(o, "AddInPlace")
	for i := range t.Data {
		t.Data[i] += o.Data[i]
	}
}

// ScaleInPlace multiplies t by s.
//
//easyscale:hotpath
func (t *Tensor) ScaleInPlace(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// Equal reports bitwise equality of shape and data. NaNs compare by bit
// pattern, which is exactly what the paper's bitwise-consistency claim needs.
func (t *Tensor) Equal(o *Tensor) bool {
	if !SameShape(t, o) {
		return false
	}
	for i := range t.Data {
		if math.Float32bits(t.Data[i]) != math.Float32bits(o.Data[i]) {
			return false
		}
	}
	return true
}

// ArgMaxRow returns, for a 2-D tensor, the argmax of each row. Used for
// classification accuracy.
func (t *Tensor) ArgMaxRow() []int {
	if len(t.shape) != 2 {
		panic("tensor: ArgMaxRow requires rank-2 tensor")
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		best, bi := t.Data[r*cols], 0
		for c := 1; c < cols; c++ {
			if v := t.Data[r*cols+c]; v > best {
				best, bi = v, c
			}
		}
		out[r] = bi
	}
	return out
}

// String renders small tensors for debugging.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.Data)
	const maxShow = 8
	for i := 0; i < n && i < maxShow; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%g", t.Data[i])
	}
	if n > maxShow {
		fmt.Fprintf(&b, " ... (%d elems)", n)
	}
	b.WriteString("]")
	return b.String()
}

// Hash64 returns an FNV-1a hash over the raw bit patterns of the data. Two
// bitwise-identical tensors hash identically; this is how integration tests
// and the experiment harness fingerprint whole models cheaply.
func (t *Tensor) Hash64() uint64 {
	h := uint64(14695981039346656037)
	for _, v := range t.Data {
		bits := math.Float32bits(v)
		for s := 0; s < 32; s += 8 {
			h ^= uint64((bits >> s) & 0xff)
			h *= 1099511628211
		}
	}
	return h
}
