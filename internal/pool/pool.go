// Package pool implements the deterministic scratch arena of the EasyScale
// training stack: size-classed, sync.Pool-backed recycling of []float32
// buffers.
//
// The paper's consistency argument (§3.3) fixes the *order* of float32
// accumulation, never the *location* of the buffers holding the operands — so
// every scratch buffer on the training hot path can be recycled without
// perturbing a single bit. The arena exists purely to take allocation and GC
// pressure off the simulated step time; all kernels zero or fully overwrite
// their scratch exactly as they would a fresh allocation, which is why Get
// (zeroed) and GetUninit (arbitrary contents, for buffers the caller fully
// overwrites) are separate entry points.
//
// Buffers are grouped in power-of-two size classes from 2^minBits up to
// 2^maxBits elements; larger requests bypass the arena and go straight to the
// garbage collector. Put re-derives the class from the buffer's capacity, so
// only buffers the arena handed out (or exact power-of-two foreign buffers,
// which is harmless) are ever recycled.
//
// pool.Disable() is the debugging escape hatch: with the arena disabled every
// Get is a plain make and every Put a no-op, so suspected aliasing bugs can
// be bisected against GC-backed allocation. Stats() exposes get/put counters
// whose difference (Gets − Puts, the buffers in use) lets tests assert that a
// training step returns every buffer it borrowed — the leak-check mode.
package pool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// minBits is the smallest pooled class (64 elements); tinier buffers are
	// cheaper to allocate than to classify.
	minBits = 6
	// maxBits is the largest pooled class (2^24 elements = 64 MiB); anything
	// larger is rare enough to leave to the garbage collector.
	maxBits    = 24
	numClasses = maxBits - minBits + 1
)

// classes[i] holds buffers of capacity exactly 1<<(minBits+i), each as a
// pointer to its first element: a pointer converts to interface{} without
// allocating, and unsafe.Slice rebuilds the buffer at the class capacity.
var classes [numClasses]sync.Pool

var disabled atomic.Bool

// stripe is one cache line of the traffic counters (see Stats). A buffer's
// address picks its stripe, so goroutines cycling different buffers do not
// bounce one line between cores; Stats sums the stripes.
type stripe struct {
	gets, puts, misses atomic.Int64
	_                  [64 - 24]byte
}

var stripes [8]stripe

func stripeOf(p *float32) *stripe {
	return &stripes[uint64(uintptr(unsafe.Pointer(p)))*0x9E3779B97F4A7C15>>61]
}

// classIndex returns the size-class index for a request of n elements, or -1
// when the request is outside the pooled range.
func classIndex(n int) int {
	if n <= 0 {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n))
	if b < minBits {
		b = minBits
	}
	if b > maxBits {
		return -1
	}
	return b - minBits
}

// GetUninit returns a buffer of length n with arbitrary contents. Use it only
// when every element is written before being read; otherwise use Get.
func GetUninit(n int) []float32 {
	ci := classIndex(n)
	if ci < 0 || disabled.Load() {
		return make([]float32, n)
	}
	if p, ok := classes[ci].Get().(*float32); ok {
		stripeOf(p).gets.Add(1)
		return unsafe.Slice(p, 1<<(minBits+ci))[:n]
	}
	s := make([]float32, n, 1<<(minBits+ci))
	st := stripeOf(unsafe.SliceData(s))
	st.gets.Add(1)
	st.misses.Add(1)
	return s
}

// Get returns a zero-filled buffer of length n — the drop-in replacement for
// make([]float32, n).
func Get(n int) []float32 {
	s := GetUninit(n)
	// Freshly made buffers are already zero; only recycled ones need clearing.
	for i := range s {
		s[i] = 0
	}
	return s
}

// Put returns a buffer to the arena. The caller must not retain any reference
// to buf (or any subslice of it) after Put. Buffers outside the pooled size
// classes, and all buffers while the arena is disabled, are dropped for the
// garbage collector to reclaim.
func Put(buf []float32) {
	ci := classOf(buf)
	if ci < 0 || disabled.Load() {
		return
	}
	p := unsafe.SliceData(buf)
	stripeOf(p).puts.Add(1)
	classes[ci].Put(p)
}

// classOf returns the size-class index of a buffer the arena could have
// handed out, or -1 for one it could not: classes are exact powers of two.
func classOf(buf []float32) int {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 {
		return -1
	}
	b := bits.Len(uint(c)) - 1
	if b < minBits || b > maxBits {
		return -1
	}
	return b - minBits
}

// Disable turns the arena off globally: Get degrades to make, Put to a no-op.
// Numerics are unaffected by construction; this exists so memory bugs can be
// debugged against plain GC allocation. Disable at process start — toggling
// mid-step simply drops in-flight buffers, which is safe but wasteful.
// restore puts back the state Disable found.
func Disable() (restore func()) {
	was := disabled.Swap(true)
	return func() { disabled.Store(was) }
}

// Counters is a snapshot of arena traffic.
type Counters struct {
	Gets   int64 // pooled-range Get/GetUninit calls
	Puts   int64 // accepted Put calls
	Misses int64 // Gets that had to allocate (class was empty)
}

// Stats returns the current traffic counters.
func Stats() Counters {
	var c Counters
	for i := range stripes {
		st := &stripes[i]
		c.Gets += st.gets.Load()
		c.Puts += st.puts.Load()
		c.Misses += st.misses.Load()
	}
	return c
}

// Scope tracks a set of borrowed buffers so they can be released together at
// a step boundary — the ownership model for activation and gradient scratch
// whose lifetime spans several calls (forward caches consumed by backward).
// A Scope is NOT safe for concurrent use; each goroutine that needs one owns
// its own. A nil *Scope is valid and degrades to plain allocation, so code
// paths without a surrounding step boundary (e.g. evaluation) need no
// special-casing.
type Scope struct {
	bufs [][]float32
	// kept, on a scope from NewKeepingScope, holds what ReleaseAll
	// reclaimed, by size class, for the scope's next borrows.
	kept *[numClasses][][]float32
	// Headers is package tensor's slab of headers over this scope's buffers
	// (an interface because tensor imports pool); ReleaseAll rewinds it.
	Headers interface{ Rewind() }
}

// NewScope returns an empty scope.
func NewScope() *Scope { return &Scope{} }

// NewKeepingScope returns an empty scope that keeps the buffers it releases
// for its own next borrows instead of handing them back to the arena, the
// way a GPU's caching allocator keeps a replica's memory: once a step has
// run, a step that repeats its work draws nothing from the arena, whatever
// other goroutines' steps interleave with it and however often the garbage
// collector empties the arena. What it keeps lives as long as the scope.
func NewKeepingScope() *Scope { return &Scope{kept: new([numClasses][][]float32)} }

// Get borrows a zero-filled buffer of length n, released by ReleaseAll.
func (s *Scope) Get(n int) []float32 {
	if s == nil {
		return make([]float32, n)
	}
	if b := s.reuse(n); b != nil {
		clear(b)
		return b
	}
	b := Get(n)
	s.bufs = append(s.bufs, b)
	return b
}

// GetUninit borrows a buffer of length n with arbitrary contents.
func (s *Scope) GetUninit(n int) []float32 {
	if s == nil {
		return make([]float32, n)
	}
	if b := s.reuse(n); b != nil {
		return b
	}
	b := GetUninit(n)
	s.bufs = append(s.bufs, b)
	return b
}

// reuse borrows a buffer of length n from what s kept, or returns nil.
func (s *Scope) reuse(n int) []float32 {
	ci := classIndex(n)
	if s.kept == nil || ci < 0 || len(s.kept[ci]) == 0 || disabled.Load() {
		return nil
	}
	k := s.kept[ci]
	b := k[len(k)-1][:n]
	s.kept[ci] = k[:len(k)-1]
	stripeOf(unsafe.SliceData(b)).gets.Add(1)
	s.bufs = append(s.bufs, b)
	return b
}

// ReleaseAll returns every tracked buffer to the arena, or keeps it for the
// scope's next borrows on a keeping scope, and rewinds the header slab. The
// caller must not use any buffer (or tensor wrapping one) obtained from this
// scope afterwards.
func (s *Scope) ReleaseAll() {
	if s == nil {
		return
	}
	for i, b := range s.bufs {
		if ci := classOf(b); s.kept != nil && ci >= 0 && !disabled.Load() {
			stripeOf(unsafe.SliceData(b)).puts.Add(1)
			s.kept[ci] = append(s.kept[ci], b)
		} else {
			Put(b)
		}
		s.bufs[i] = nil
	}
	s.bufs = s.bufs[:0]
	if s.Headers != nil {
		s.Headers.Rewind()
	}
}
