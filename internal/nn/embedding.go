package nn

import (
	"repro/internal/tensor"
)

// Embedding maps integer token ids to dense vectors. Input is a [B, L]
// tensor whose float32 values hold the ids exactly (vocabularies here are far
// below 2²⁴); output is [B, L, D].
type Embedding struct {
	Vocab, D int
	W        *Parameter

	ids []int
}

// NewEmbedding constructs an embedding table from b, with normal(0, 0.02)
// init drawn from b's init.
func NewEmbedding(vocab, d int, b *Builder) *Embedding {
	e := &Embedding{Vocab: vocab, D: d, W: b.Param("weight", vocab, d)}
	if b.init != nil {
		for i := range e.W.Value.Data {
			e.W.Value.Data[i] = b.init.NormFloat32() * 0.02
		}
	}
	return e
}

// Forward gathers rows of the table.
//
//easyscale:hotpath
func (e *Embedding) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	shapeCheck(x.Rank() == 2, "Embedding: want [B,L] ids, got %v", shapeOf{x})
	b, l := x.Dim(0), x.Dim(1)
	ctx.Dev.ChargeFLOPs(float64(b*l*e.D), 1)
	e.ids = resize(e.ids, x.Size())
	y := ctx.newTensorUninit(b, l, e.D)
	for i, v := range x.Data {
		id := int(v)
		if !(id >= 0 && id < e.Vocab) {
			panic(shapeErr("Embedding: id %d out of vocab %d", id, e.Vocab))
		}
		e.ids[i] = id
		copy(y.Data[i*e.D:(i+1)*e.D], e.W.Value.Data[id*e.D:(id+1)*e.D])
	}
	return y
}

// Backward scatter-adds gradients into the table rows in input order (a fixed
// order: the deterministic counterpart of GPU scatter-add atomics).
//
//easyscale:hotpath
func (e *Embedding) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	shapeCheck(len(e.ids) > 0 && grad.Size() == len(e.ids)*e.D, "Embedding backward without matching forward")
	ctx.Dev.ChargeFLOPs(float64(grad.Size()), 1)
	for i, id := range e.ids {
		row := e.W.Grad.Data[id*e.D : (id+1)*e.D]
		g := grad.Data[i*e.D : (i+1)*e.D]
		for j, v := range g {
			row[j] += v
		}
	}
	// Token ids carry no gradient; return zeros of the input shape so a
	// containing Sequential keeps well-formed tensors flowing.
	return ctx.newTensor(grad.Dim(0), len(e.ids)/grad.Dim(0))
}

// Params returns the embedding table.
func (e *Embedding) Params() []*Parameter { return []*Parameter{e.W} }
