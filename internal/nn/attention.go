package nn

import (
	"math"

	"repro/internal/kernels"
	"repro/internal/pool"
	"repro/internal/tensor"
)

// MultiHeadAttention is multi-head scaled dot-product self-attention over
// [B, L, D] inputs. Its compute is GEMM-family (cuBLAS in the paper's terms):
// the hardware-agnostic variant runs at near parity, which is why the
// transformer workloads show <1% D2 overhead in Figure 12.
type MultiHeadAttention struct {
	D, Heads int

	Wq, Wk, Wv, Wo *Linear

	// forward caches, per (batch, head)
	q, k, v, attn *tensor.Tensor
	batch, seq    int
}

// NewMultiHeadAttention constructs the four projections from b.
func NewMultiHeadAttention(d, heads int, b *Builder) *MultiHeadAttention {
	if d%heads != 0 {
		panic("nn: attention dim must be divisible by heads")
	}
	return &MultiHeadAttention{
		D: d, Heads: heads,
		Wq: NewLinear(d, d, true, b),
		Wk: NewLinear(d, d, true, b),
		Wv: NewLinear(d, d, true, b),
		Wo: NewLinear(d, d, true, b),
	}
}

// headSlice copies head h of row-major [B, L, D] data into a contiguous
// [L, dh] buffer for one batch element.
func (m *MultiHeadAttention) headSlice(dst []float32, src []float32, b, h int) {
	dh := m.D / m.Heads
	for l := 0; l < m.seq; l++ {
		off := (b*m.seq+l)*m.D + h*dh
		copy(dst[l*dh:(l+1)*dh], src[off:off+dh])
	}
}

// headScatterAdd adds a contiguous [L, dh] buffer back into head h of
// [B, L, D] data.
func (m *MultiHeadAttention) headScatterAdd(dst []float32, src []float32, b, h int) {
	dh := m.D / m.Heads
	for l := 0; l < m.seq; l++ {
		off := (b*m.seq+l)*m.D + h*dh
		for j := 0; j < dh; j++ {
			dst[off+j] += src[l*dh+j]
		}
	}
}

// Forward computes softmax(QKᵀ/√dh)·V per head and projects the result.
//
//easyscale:hotpath
func (m *MultiHeadAttention) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if !(x.Rank() == 3 && x.Dim(2) == m.D) {
		panic(shapeErr("MultiHeadAttention: want [B,L,%d], got %v", m.D, shapeOf{x}))
	}
	m.batch, m.seq = x.Dim(0), x.Dim(1)
	b, l, dh := m.batch, m.seq, m.D/m.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))

	m.q = m.Wq.Forward(ctx, x)
	m.k = m.Wk.Forward(ctx, x)
	m.v = m.Wv.Forward(ctx, x)

	m.attn = ctx.newTensorUninit(b, m.Heads, l, l)
	y := ctx.newTensor(b, l, m.D) // zeroed: heads scatter-add into it
	// per-head planes: one arena draw for the four [L, dh] ones
	n := l * dh
	planes, scores := pool.GetUninit(4*n), pool.GetUninit(l*l)
	qh, kh, vh, out := planes[:n], planes[n:2*n], planes[2*n:3*n], planes[3*n:]
	kb := ctx.Dev.KernelBlock()
	for bi := 0; bi < b; bi++ {
		for h := 0; h < m.Heads; h++ {
			m.headSlice(qh, m.q.Data, bi, h)
			m.headSlice(kh, m.k.Data, bi, h)
			m.headSlice(vh, m.v.Data, bi, h)
			// scores = q·kᵀ
			ctx.Dev.ChargeFLOPs(2*float64(l)*float64(l)*float64(dh), ctx.Dev.GemmEfficiency())
			kernels.MatMulABT(scores, qh, kh, l, dh, l, kb)
			aoff := ((bi*m.Heads + h) * l) * l
			a := m.attn.Data[aoff : aoff+l*l]
			for r := 0; r < l; r++ {
				row := scores[r*l : (r+1)*l]
				mx := row[0] * scale
				for _, s := range row {
					if s*scale > mx {
						mx = s * scale
					}
				}
				var sum float32
				arow := a[r*l : (r+1)*l]
				for c := 0; c < l; c++ {
					e := float32(math.Exp(float64(row[c]*scale - mx)))
					arow[c] = e
					sum += e
				}
				inv := 1 / sum
				for c := range arow {
					arow[c] *= inv
				}
			}
			// out = A·v
			ctx.Dev.ChargeFLOPs(2*float64(l)*float64(l)*float64(dh), ctx.Dev.GemmEfficiency())
			kernels.MatMul(out, a, vh, l, l, dh, kb)
			m.headScatterAdd(y.Data, out, bi, h)
		}
	}
	pool.Put(planes)
	pool.Put(scores)
	return m.Wo.Forward(ctx, y)
}

// Backward differentiates the attention and all four projections, returning
// the input gradient (sum of the q, k, v projection paths).
//
//easyscale:hotpath
func (m *MultiHeadAttention) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	shapeCheck(m.attn != nil, "MultiHeadAttention backward without matching forward")
	b, l, dh := m.batch, m.seq, m.D/m.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))

	dY := m.Wo.Backward(ctx, grad) // [B,L,D]
	// zeroed: per-head gradients scatter-add into the projections
	dQ := ctx.newTensor(b, l, m.D)
	dK := ctx.newTensor(b, l, m.D)
	dV := ctx.newTensor(b, l, m.D)

	n := l * dh
	planes, sq := pool.GetUninit(7*n), pool.GetUninit(2*l*l)
	qh, kh, vh, dyh := planes[:n], planes[n:2*n], planes[2*n:3*n], planes[3*n:4*n]
	dqh, dkh, dvh := planes[4*n:5*n], planes[5*n:6*n], planes[6*n:]
	dA, dS := sq[:l*l], sq[l*l:]
	kb := ctx.Dev.KernelBlock()
	for bi := 0; bi < b; bi++ {
		for h := 0; h < m.Heads; h++ {
			m.headSlice(qh, m.q.Data, bi, h)
			m.headSlice(kh, m.k.Data, bi, h)
			m.headSlice(vh, m.v.Data, bi, h)
			m.headSlice(dyh, dY.Data, bi, h)
			aoff := ((bi*m.Heads + h) * l) * l
			a := m.attn.Data[aoff : aoff+l*l]

			flops := 2 * float64(l) * float64(l) * float64(dh)
			ctx.Dev.ChargeFLOPs(4*flops, ctx.Dev.GemmEfficiency())
			// dA = dy·vᵀ ; dV = Aᵀ·dy
			kernels.MatMulABT(dA, dyh, vh, l, dh, l, kb)
			kernels.MatMulATB(dvh, a, dyh, l, l, dh, kb)
			// softmax backward: dS = A ⊙ (dA − rowsum(dA⊙A))
			for r := 0; r < l; r++ {
				var dot float32
				for c := 0; c < l; c++ {
					dot += dA[r*l+c] * a[r*l+c]
				}
				for c := 0; c < l; c++ {
					dS[r*l+c] = a[r*l+c] * (dA[r*l+c] - dot) * scale
				}
			}
			// dq = dS·k ; dk = dSᵀ·q
			kernels.MatMul(dqh, dS, kh, l, l, dh, kb)
			kernels.MatMulATB(dkh, dS, qh, l, l, dh, kb)
			m.headScatterAdd(dQ.Data, dqh, bi, h)
			m.headScatterAdd(dK.Data, dkh, bi, h)
			m.headScatterAdd(dV.Data, dvh, bi, h)
		}
	}
	pool.Put(planes)
	pool.Put(sq)
	dx := m.Wq.Backward(ctx, dQ)
	dx.AddInPlace(m.Wk.Backward(ctx, dK))
	dx.AddInPlace(m.Wv.Backward(ctx, dV))
	m.q, m.k, m.v, m.attn = nil, nil, nil, nil
	return dx
}

// Params returns the parameters of all four projections.
func (m *MultiHeadAttention) Params() []*Parameter {
	var out []*Parameter
	for _, l := range []*Linear{m.Wq, m.Wk, m.Wv, m.Wo} {
		out = append(out, l.Params()...)
	}
	return out
}
