// Package checkpoint implements the binary serialization layer behind
// EasyScale's on-demand checkpointing.
//
// Everything an elastic restart needs — model parameters, optimizer moments,
// BatchNorm running statistics, EST contexts (RNG states, virtual ranks,
// progress), the gradient-bucket plan, and the data-loader worker states — is
// written through this encoder. Floats are serialized by bit pattern, so a
// checkpoint round-trip is bitwise lossless, which the paper's
// accuracy-consistency guarantee requires.
package checkpoint

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// ErrCorrupt is returned when a read runs past the buffer or a tag
// mismatches.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated data")

// Writer encodes a checkpoint into a byte buffer; the zero value is empty.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the encoded checkpoint: the Writer's own buffer, valid until
// the next Reset.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset empties the Writer but keeps its capacity, so one that encodes message
// after message stops allocating once it has seen the largest. The first
// reserve bytes are zeroed for the caller to fill in through Bytes (dist's
// frame header: header and payload then leave in one write).
func (w *Writer) Reset(reserve int) {
	w.buf = append(w.buf[:0], make([]byte, reserve)...)
}

// Grow makes room for n more bytes: an encoding of known size then costs one
// allocation of that size, not a doubling series.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// Len returns the current encoded size.
func (w *Writer) Len() int { return len(w.buf) }

// PutUint64 appends a fixed-width unsigned integer.
func (w *Writer) PutUint64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// PutInt appends a signed integer.
func (w *Writer) PutInt(v int) { w.PutUint64(uint64(int64(v))) }

// PutBool appends a boolean.
func (w *Writer) PutBool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// PutFloat64 appends a float64 by bit pattern.
func (w *Writer) PutFloat64(v float64) { w.PutUint64(math.Float64bits(v)) }

// PutString appends a length-prefixed string.
func (w *Writer) PutString(s string) {
	w.PutInt(len(s))
	w.buf = append(w.buf, s...)
}

// PutBytes appends a length-prefixed byte slice, in PutString's layout.
func (w *Writer) PutBytes(b []byte) {
	w.PutInt(len(b))
	w.buf = append(w.buf, b...)
}

// PutRaw appends b as it is, with no length prefix.
func (w *Writer) PutRaw(b []byte) { w.buf = append(w.buf, b...) }

// PutFloat32s appends a length-prefixed float32 slice by bit pattern. The
// buffer is reserved once up front, so encoding a large tensor costs one
// reallocation instead of O(log n) whole-buffer copies from per-element
// append growth.
func (w *Writer) PutFloat32s(vs []float32) {
	w.PutInt(len(vs))
	w.buf = slices.Grow(w.buf, 4*len(vs))
	for _, v := range vs {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, math.Float32bits(v))
	}
}

// PutInts appends a length-prefixed int slice.
func (w *Writer) PutInts(vs []int) {
	w.PutInt(len(vs))
	w.buf = slices.Grow(w.buf, 8*len(vs))
	for _, v := range vs {
		w.PutInt(v)
	}
}

// TensorLen returns the encoded size of a tensor: what PutTensor appends.
func TensorLen(t *tensor.Tensor) int { return 8*(2+t.Rank()) + 4*t.Size() }

// PutTensor appends shape and data of a tensor, reserving its exact encoded
// size first: a Writer that encodes one tensor allocates once.
func (w *Writer) PutTensor(t *tensor.Tensor) {
	w.Grow(TensorLen(t))
	w.PutInts(t.Shape())
	w.PutFloat32s(t.Data)
}

// PutRNGState appends a serialized RNG state.
func (w *Writer) PutRNGState(st rng.State) {
	for _, word := range st.S {
		w.PutUint64(word)
	}
}

// Reader decodes a checkpoint produced by Writer. Its errors are sticky: after
// a failed read every later one fails the same way and returns a zero value,
// so a decoder may read a run of fields and check Err once — provided nothing
// before that check goes wrong on a zero (looping or allocating by one is fine).
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps encoded bytes.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Err returns the first error a read ran into, nil if none has.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) error {
	r.err = cmp.Or(r.err, err)
	return r.err
}

func (r *Reader) take(n int) ([]byte, error) {
	// compared against what is left, not off+n: a hostile length near
	// MaxInt64 would overflow the sum and slip past the check into a panic
	if r.err != nil || n < 0 || n > len(r.buf)-r.off {
		return nil, r.fail(ErrCorrupt)
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

// Uint64 reads a fixed-width unsigned integer.
func (r *Reader) Uint64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Int reads a signed integer.
func (r *Reader) Int() (int, error) {
	v, err := r.Uint64()
	return int(int64(v)), err
}

// Bool reads a boolean.
func (r *Reader) Bool() (bool, error) {
	b, err := r.take(1)
	if err != nil {
		return false, err
	}
	return b[0] != 0, nil
}

// Float64 reads a float64 by bit pattern.
func (r *Reader) Float64() (float64, error) {
	v, err := r.Uint64()
	return math.Float64frombits(v), err
}

// String reads a length-prefixed string.
func (r *Reader) String() (string, error) {
	b, err := r.Bytes()
	return string(b), err
}

// Bytes reads a length-prefixed byte slice (PutBytes, PutString) without
// copying it: the result is a view of the Reader's buffer, capped so an append
// cannot reach the bytes behind it, for the caller to copy if it must outlive
// that buffer.
func (r *Reader) Bytes() ([]byte, error) {
	n, _ := r.Int()
	b, err := r.take(n)
	return b[:len(b):len(b)], err
}

// count reads a length prefix of elements of the given encoded size, rejecting
// one the unread bytes could not hold before anything is allocated by it.
func (r *Reader) count(size int) (int, error) {
	n, err := r.Int()
	if err != nil || n < 0 || n > r.Remaining()/size {
		return 0, r.fail(ErrCorrupt)
	}
	return n, nil
}

// Float32s reads a length-prefixed float32 slice.
func (r *Reader) Float32s() ([]float32, error) {
	n, err := r.count(4)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	return out, r.readFloat32s(out)
}

// Float32sInto reads a length-prefixed float32 slice directly into dst,
// which must have exactly the encoded length — the restore hot path, free of
// the transient slice Float32s allocates.
func (r *Reader) Float32sInto(dst []float32) error {
	n, err := r.count(4)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return r.fail(fmt.Errorf("%w: %d encoded floats into buffer of %d", ErrCorrupt, n, len(dst)))
	}
	return r.readFloat32s(dst)
}

// readFloat32s bulk-decodes len(dst) floats from the buffer into dst.
func (r *Reader) readFloat32s(dst []float32) error {
	b, err := r.take(4 * len(dst))
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return nil
}

// Ints reads a length-prefixed int slice.
func (r *Reader) Ints() ([]int, error) {
	n, err := r.count(8)
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		out[i], _ = r.Int() // count made sure of the bytes
	}
	return out, nil
}

// checkShape validates a decoded shape and returns its element count. A shape
// whose numel exceeds what the unread bytes could possibly hold is corrupt by
// construction — rejecting it here means a truncated or shape-mangled frame
// fails before the data section is decoded, not after.
func (r *Reader) checkShape(shape []int) (int, error) {
	numel := 1
	for _, d := range shape {
		if d < 0 || (d > 0 && numel > maxFrame/d) {
			return 0, r.fail(fmt.Errorf("%w: implausible tensor shape %v", ErrCorrupt, shape))
		}
		numel *= d
	}
	if numel > r.Remaining()/4 {
		return 0, r.fail(fmt.Errorf("%w: tensor shape %v needs %d floats, %d bytes remain",
			ErrCorrupt, shape, numel, r.Remaining()))
	}
	return numel, nil
}

// maxFrame bounds a single decoded tensor's element count against
// allocation-bomb corruption.
const maxFrame = 1 << 31

// maxDims bounds the rank of a decoded tensor shape. Nothing in the model zoo
// is deeper than 4-D; 8 leaves headroom while keeping TensorInto's
// stack-allocated shape scratch small.
const maxDims = 8

// TensorInto reads a tensor into an existing buffer, enforcing equal size —
// the restore path for parameters whose shapes are defined by the model. The
// shape is staged in a fixed-size stack buffer and the floats are decoded
// straight into dst.Data, so restoring a full model performs zero transient
// allocations.
func (r *Reader) TensorInto(dst *tensor.Tensor) error {
	rank, err := r.Int()
	if err != nil || rank < 0 || rank > maxDims {
		return r.fail(fmt.Errorf("%w: tensor rank %d", ErrCorrupt, rank))
	}
	var dims [maxDims]int
	shape := dims[:rank]
	for i := range shape {
		shape[i], _ = r.Int() // sticky: a failed read fails the reads below
	}
	numel, err := r.checkShape(shape)
	if err != nil {
		return err
	}
	if numel != dst.Size() {
		return r.fail(fmt.Errorf("%w: restoring %v into %v", ErrCorrupt, shape, dst.Shape()))
	}
	return r.Float32sInto(dst.Data)
}

// RNGState reads a serialized RNG state.
func (r *Reader) RNGState() (rng.State, error) {
	var st rng.State
	for i := range st.S {
		st.S[i], _ = r.Uint64()
	}
	return st, r.err
}
