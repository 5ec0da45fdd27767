// Fixture for the hotalloc analyzer: functions annotated
// //easyscale:hotpath must not allocate.
package hotalloc

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/pool"
	"repro/internal/tensor"
)

type vec struct{ x, y float32 }

var sink any

// axpy is a clean hot-path kernel: reslices, arithmetic, value literals.
//
//easyscale:hotpath
func axpy(a float32, x, y []float32) {
	x = x[:len(y)]
	v := vec{x: a, y: a} // value struct literal: stack-allocated, allowed
	_ = v
	for i := range y {
		y[i] += a * x[i]
	}
}

// pooled draws scratch from the arena — the sanctioned amortized allocation.
//
//easyscale:hotpath
func pooled(n int) {
	buf := pool.GetUninit(n)
	for i := range buf {
		buf[i] = 0
	}
	pool.Put(buf)
}

// scoped takes its tensors from the step's scope: header and buffer come
// from the scope's slab and the arena, so nothing here is flagged.
//
//easyscale:hotpath
func scoped(s *pool.Scope, x *tensor.Tensor) *tensor.Tensor {
	y := tensor.NewScopedUninit(s, x.Shape()...)
	z := tensor.NewScoped(s, 2, 3)
	_ = z
	y.CopyFrom(x)
	return y.CloneScoped(s).Reshape(-1)
}

// rowShape is the shape of every tensor of heapTensors' block.
func rowShape(int) []int { return []int{3} }

// heapTensors builds its tensors on the heap.
//
//easyscale:hotpath
func heapTensors(buf []float32) {
	a := tensor.New(2, 3)                    // want `hot path allocates: tensor\.New`
	c := tensor.FromData(buf, len(buf))      // want `hot path allocates: tensor\.FromData`
	d := tensor.NewBlock(2, rowShape)        // want `hot path allocates: tensor\.NewBlock`
	e := tensor.NewCarver(6, 2)              // want `hot path allocates: tensor\.NewCarver`
	f := nn.NewBuilder(nil, nil, nn.Sizes{}) // want `hot path allocates: nn\.NewBuilder`
	_, _, _, _, _ = a, c, d, e, f
}

// allocating trips every forbidden construct.
//
//easyscale:hotpath
func allocating(n int, name string, xs []float32) {
	s := make([]float32, n) // want `hot path allocates: make`
	p := new(vec)           // want `hot path allocates: new`
	xs = append(xs, 1)      // want `hot path allocates: append growth`
	l := []int{1, 2}        // want `hot path allocates: slice/map composite literal`
	m := map[int]int{}      // want `hot path allocates: slice/map composite literal`
	pv := &vec{}            // want `hot path allocates: &composite literal`
	msg := "step " + name   // want `hot path allocates: string concatenation`
	f := func() {}          // want `hot path allocates: function literal`
	fmt.Println(n)          // want `hot path allocates: fmt.Println`
	sink = any(n)           // want `hot path allocates: conversion to any`
	_, _, _, _, _, _, _, _ = s, p, l, m, pv, msg, f, xs
}

// cold is the same body without the annotation: no diagnostics.
func cold(n int) []float32 {
	out := make([]float32, n)
	return out
}

// suppressed shows a pinned exception with its reason.
//
//easyscale:hotpath
func suppressed(n int) []int {
	//detlint:ignore hotalloc -- fixture: cold branch taken once per job, pinned by AllocsPerRun
	return make([]int, n)
}

func take(v any) { sink = v }

// boxing stores concrete values in interface-typed slots.
//
//easyscale:hotpath
func boxing(n int, p *vec) any {
	take(n)  // want `hot path allocates: int argument boxed into any`
	take(p)  // a pointer fits the interface word
	take(7)  // a constant is boxed statically
	sink = n // want `hot path allocates: int assignment boxed into any`
	return n // want `hot path allocates: int return boxed into any`
}

// shadowed calls parameters named after the builtins: plain calls.
//
//easyscale:hotpath
func shadowed(any func(int) int, new func() int) int {
	return any(new())
}

// checked allocates only on the way to a panic, which is not the hot path.
//
//easyscale:hotpath
func checked(n int) {
	if n < 0 {
		panic(fmt.Sprintf("negative length %d", n))
	}
}
