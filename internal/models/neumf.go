package models

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// NeuMFNet is the neural collaborative filtering architecture: user and item
// embedding tables feeding an MLP scoring head. Input is [B, 2] (user id,
// item id); output is [B, 1] interaction logits.
type NeuMFNet struct {
	UserEmb, ItemEmb *nn.Embedding
	MLP              *nn.Sequential

	batch int
}

// NewNeuMF constructs the network from b.
func NewNeuMF(users, items, dim int, b *nn.Builder) *NeuMFNet {
	return &NeuMFNet{
		UserEmb: nn.NewEmbedding(users, dim, b),
		ItemEmb: nn.NewEmbedding(items, dim, b),
		MLP: nn.NewSequential(
			nn.NewLinear(2*dim, 4*dim, true, b),
			nn.NewReLU(),
			nn.NewDropout(0.1),
			nn.NewLinear(4*dim, dim, true, b),
			nn.NewReLU(),
			nn.NewLinear(dim, 1, true, b),
		),
	}
}

// Forward embeds both ids, concatenates, and scores.
func (n *NeuMFNet) Forward(ctx *nn.Context, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != 2 {
		panic("models: NeuMF wants [B,2] id pairs")
	}
	b := x.Dim(0)
	n.batch = b
	uIds := tensor.NewScopedUninit(ctx.Scratch, b, 1)
	iIds := tensor.NewScopedUninit(ctx.Scratch, b, 1)
	for i := 0; i < b; i++ {
		uIds.Data[i] = x.At(i, 0)
		iIds.Data[i] = x.At(i, 1)
	}
	d := n.UserEmb.D
	ue := n.UserEmb.Forward(ctx, uIds).Reshape(b, d)
	ie := n.ItemEmb.Forward(ctx, iIds).Reshape(b, d)
	cat := tensor.NewScopedUninit(ctx.Scratch, b, 2*d)
	for i := 0; i < b; i++ {
		copy(cat.Data[i*2*d:i*2*d+d], ue.Data[i*d:(i+1)*d])
		copy(cat.Data[i*2*d+d:(i+1)*2*d], ie.Data[i*d:(i+1)*d])
	}
	return n.MLP.Forward(ctx, cat)
}

// Backward splits the concatenated gradient back to the two tables.
func (n *NeuMFNet) Backward(ctx *nn.Context, grad *tensor.Tensor) *tensor.Tensor {
	b, d := n.batch, n.UserEmb.D
	dcat := n.MLP.Backward(ctx, grad)
	du := tensor.NewScopedUninit(ctx.Scratch, b, 1, d)
	di := tensor.NewScopedUninit(ctx.Scratch, b, 1, d)
	for i := 0; i < b; i++ {
		copy(du.Data[i*d:(i+1)*d], dcat.Data[i*2*d:i*2*d+d])
		copy(di.Data[i*d:(i+1)*d], dcat.Data[i*2*d+d:(i+1)*2*d])
	}
	n.UserEmb.Backward(ctx, du)
	n.ItemEmb.Backward(ctx, di)
	// id inputs carry no gradient
	return tensor.NewScoped(ctx.Scratch, b, 2)
}

// Params returns all trainable parameters.
func (n *NeuMFNet) Params() []*nn.Parameter {
	out := append([]*nn.Parameter(nil), n.UserEmb.Params()...)
	out = append(out, n.ItemEmb.Params()...)
	return append(out, n.MLP.Params()...)
}
