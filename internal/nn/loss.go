package nn

import (
	"math"

	"repro/internal/pool"
	"repro/internal/tensor"
)

// CrossEntropy is softmax cross-entropy with mean reduction over the batch.
// The mean reduction goes through the device reduction policy, so even the
// scalar loss value is sensitive to kernel determinism — which is why the
// paper compares loss curves bitwise.
type CrossEntropy struct {
	probs  *tensor.Tensor
	labels []int
}

// NewCrossEntropy constructs the loss.
func NewCrossEntropy() *CrossEntropy { return &CrossEntropy{} }

// Forward computes mean(-log softmax(logits)[label]) for logits [B, K].
//
//easyscale:hotpath
func (ce *CrossEntropy) Forward(ctx *Context, logits *tensor.Tensor, labels []int) float32 {
	if !(logits.Rank() == 2 && logits.Dim(0) == len(labels)) {
		panic(shapeErr("CrossEntropy: logits %v vs %d labels", shapeOf{logits}, len(labels)))
	}
	b, k := logits.Dim(0), logits.Dim(1)
	ctx.Dev.ChargeFLOPs(5*float64(logits.Size()), 1)
	ce.probs = ctx.newTensorUninit(b, k)
	ce.labels = resize(ce.labels, len(labels))
	copy(ce.labels, labels)
	losses := pool.GetUninit(b)
	for r := 0; r < b; r++ {
		row := logits.Data[r*k : (r+1)*k]
		mx := row[0]
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var sum float32
		prow := ce.probs.Data[r*k : (r+1)*k]
		for c, v := range row {
			e := float32(math.Exp(float64(v - mx)))
			prow[c] = e
			sum += e
		}
		inv := 1 / sum
		for c := range prow {
			prow[c] *= inv
		}
		lbl := labels[r]
		if !(lbl >= 0 && lbl < k) {
			panic(shapeErr("CrossEntropy: label %d out of range %d", lbl, k))
		}
		losses[r] = -float32(math.Log(float64(prow[lbl]) + 1e-12))
	}
	loss := reduceSum(ctx, losses) / float32(b)
	pool.Put(losses)
	return loss
}

// Backward returns dL/dlogits = (softmax − onehot)/B.
//
//easyscale:hotpath
func (ce *CrossEntropy) Backward(ctx *Context) *tensor.Tensor {
	shapeCheck(ce.probs != nil, "CrossEntropy backward without matching forward")
	b, k := ce.probs.Dim(0), ce.probs.Dim(1)
	grad := ctx.clone(ce.probs)
	inv := 1 / float32(b)
	for r := 0; r < b; r++ {
		grad.Data[r*k+ce.labels[r]] -= 1
		for c := 0; c < k; c++ {
			grad.Data[r*k+c] *= inv
		}
	}
	ce.probs = nil
	return grad
}

// BCEWithLogits is binary cross-entropy over logits with mean reduction,
// used by the recommendation workload (NeuMF).
type BCEWithLogits struct {
	sig    *tensor.Tensor
	target *tensor.Tensor
}

// NewBCEWithLogits constructs the loss.
func NewBCEWithLogits() *BCEWithLogits { return &BCEWithLogits{} }

// Forward computes mean BCE of sigmoid(logits) against targets in [0,1].
//
//easyscale:hotpath
func (b *BCEWithLogits) Forward(ctx *Context, logits, target *tensor.Tensor) float32 {
	shapeCheck(logits.Size() == target.Size(), "BCE: pred %v vs target %v", shapeOf{logits}, shapeOf{target})
	ctx.Dev.ChargeFLOPs(8*float64(logits.Size()), 1)
	b.sig = ctx.newTensorUninit(logits.Shape()...)
	b.target = target
	losses := pool.GetUninit(logits.Size())
	for i, v := range logits.Data {
		s := 1 / (1 + math.Exp(-float64(v)))
		b.sig.Data[i] = float32(s)
		t := float64(target.Data[i])
		losses[i] = -float32(t*math.Log(s+1e-12) + (1-t)*math.Log(1-s+1e-12))
	}
	loss := reduceSum(ctx, losses) / float32(logits.Size())
	pool.Put(losses)
	return loss
}

// Backward returns (sigmoid(logits) − target)/N.
//
//easyscale:hotpath
func (b *BCEWithLogits) Backward(ctx *Context) *tensor.Tensor {
	shapeCheck(b.sig != nil, "BCE backward without matching forward")
	g := ctx.clone(b.sig)
	for i := range g.Data {
		g.Data[i] -= b.target.Data[i]
	}
	g.ScaleInPlace(1 / float32(g.Size()))
	b.sig, b.target = nil, nil
	return g
}
