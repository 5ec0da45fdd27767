// Package data implements the EasyScale data pipeline: synthetic datasets
// standing in for the paper's open datasets, the elastic distributed sampler
// that assigns global indices to EasyScaleThreads, and the shared data-worker
// pool with the RNG queuing buffer of Figure 7.
//
// Datasets are deterministic functions of (seed, index): item i is generated
// on demand from a counter-derived RNG stream, so a "dataset" of any size
// costs no memory and two processes with the same seed observe bitwise
// identical data. Augmentation draws from a caller-provided stream, which is
// exactly the RNG state the queuing buffer must record for elastic restarts.
package data

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Dataset yields training items on demand.
type Dataset interface {
	// Len returns the number of items.
	Len() int
	// InputShape returns the shape of one input item (without batch dim).
	// The slice is the dataset's own, built once: callers must not modify it.
	InputShape() []int
	// NumClasses returns the label arity.
	NumClasses() int
	// Sample materializes item i into dst (of InputShape size), writing
	// every element, and returns its label. If aug is non-nil, data
	// augmentation draws from it.
	Sample(i int, dst []float32, aug *rng.Stream) int
}

// SyntheticImages is a CIFAR10-like classification dataset: each class has a
// fixed prototype pattern and items are the prototype plus item-seeded noise.
// Augmentation applies a random horizontal flip and a ±2 pixel shift, the
// standard CIFAR recipe.
type SyntheticImages struct {
	N, Classes int
	C, H, W    int
	seed       uint64
	protos     []float32 // Classes × C×H×W
	shape      []int     // [C, H, W], built once so batches do not allocate it
	NoiseStd   float32
}

// NewSyntheticImages builds the dataset. Prototypes are derived from seed.
func NewSyntheticImages(n, classes, c, h, w int, seed uint64) *SyntheticImages {
	d := &SyntheticImages{N: n, Classes: classes, C: c, H: h, W: w, seed: seed, shape: []int{c, h, w}, NoiseStd: 0.3}
	sz := c * h * w
	d.protos = make([]float32, classes*sz)
	for cl := 0; cl < classes; cl++ {
		s := rng.Indexed(seed, "proto-", cl)
		for j := 0; j < sz; j++ {
			d.protos[cl*sz+j] = s.NormFloat32()
		}
	}
	return d
}

// Len returns the dataset size.
func (d *SyntheticImages) Len() int { return d.N }

// InputShape returns [C, H, W].
func (d *SyntheticImages) InputShape() []int { return d.shape }

// NumClasses returns the label arity.
func (d *SyntheticImages) NumClasses() int { return d.Classes }

// Sample generates item i: class prototype + noise, optionally augmented.
//
//easyscale:hotpath
func (d *SyntheticImages) Sample(i int, dst []float32, aug *rng.Stream) int {
	sz := d.C * d.H * d.W
	if len(dst) != sz {
		panic("data: image Sample dst size")
	}
	label := i % d.Classes
	noise := rng.Indexed(d.seed, "item-", i)
	copy(dst, d.protos[label*sz:(label+1)*sz])
	for j := range dst {
		dst[j] += noise.NormFloat32() * d.NoiseStd
	}
	if aug != nil {
		d.augment(dst, aug)
	}
	return label
}

// augment applies flip + shift drawn from the stream (in a fixed draw order,
// so the stream state fully determines the result).
//
//easyscale:hotpath
func (d *SyntheticImages) augment(img []float32, aug *rng.Stream) {
	flip := aug.Bernoulli(0.5)
	dy := aug.Intn(5) - 2
	dx := aug.Intn(5) - 2
	tmp := pool.GetUninit(d.H * d.W)
	for c := 0; c < d.C; c++ {
		plane := img[c*d.H*d.W : (c+1)*d.H*d.W]
		copy(tmp, plane)
		for y := 0; y < d.H; y++ {
			for x := 0; x < d.W; x++ {
				sx := x
				if flip {
					sx = d.W - 1 - x
				}
				sy, sxx := y+dy, sx+dx
				var v float32
				if sy >= 0 && sy < d.H && sxx >= 0 && sxx < d.W {
					v = tmp[sy*d.W+sxx]
				}
				plane[y*d.W+x] = v
			}
		}
	}
	pool.Put(tmp)
}

// SyntheticInteractions is a MovieLens-like implicit-feedback dataset for the
// recommendation workload: items are (user, item) id pairs, labels follow a
// latent dot-product model.
type SyntheticInteractions struct {
	N            int
	Users, Items int
	Dim          int
	seed         uint64
	uLat, iLat   []float32
}

// NewSyntheticInteractions builds the dataset with latent factors from seed.
func NewSyntheticInteractions(n, users, items int, seed uint64) *SyntheticInteractions {
	d := &SyntheticInteractions{N: n, Users: users, Items: items, Dim: 8, seed: seed}
	us := rng.NewNamed(seed, "user-latent")
	is := rng.NewNamed(seed, "item-latent")
	d.uLat = make([]float32, users*d.Dim)
	d.iLat = make([]float32, items*d.Dim)
	for j := range d.uLat {
		d.uLat[j] = us.NormFloat32()
	}
	for j := range d.iLat {
		d.iLat[j] = is.NormFloat32()
	}
	return d
}

// Len returns the dataset size.
func (d *SyntheticInteractions) Len() int { return d.N }

// InputShape returns [2]: user id, item id.
func (d *SyntheticInteractions) InputShape() []int { return interactionShape }

var interactionShape = []int{2}

// NumClasses returns 2 (positive / negative interaction).
func (d *SyntheticInteractions) NumClasses() int { return 2 }

// Sample draws a (user, item) pair for index i; the label is 1 when the
// latent affinity is positive.
//
//easyscale:hotpath
func (d *SyntheticInteractions) Sample(i int, dst []float32, aug *rng.Stream) int {
	if len(dst) != 2 {
		panic("data: interaction Sample dst size")
	}
	s := rng.Indexed(d.seed, "inter-", i)
	u := s.Intn(d.Users)
	it := s.Intn(d.Items)
	dst[0], dst[1] = float32(u), float32(it)
	var dot float32
	for j := 0; j < d.Dim; j++ {
		dot += d.uLat[u*d.Dim+j] * d.iLat[it*d.Dim+j]
	}
	if dot > 0 {
		return 1
	}
	return 0
}

// SyntheticTokens is a SQuAD-stand-in token classification dataset for the
// transformer workloads: sequences of token ids whose label depends on a
// keyed sum of the tokens.
type SyntheticTokens struct {
	N, Vocab, SeqLen, Classes int
	seed                      uint64
	shape                     []int // [SeqLen], built once so batches do not allocate it
}

// NewSyntheticTokens builds the dataset.
func NewSyntheticTokens(n, vocab, seqLen, classes int, seed uint64) *SyntheticTokens {
	return &SyntheticTokens{N: n, Vocab: vocab, SeqLen: seqLen, Classes: classes, seed: seed, shape: []int{seqLen}}
}

// Len returns the dataset size.
func (d *SyntheticTokens) Len() int { return d.N }

// InputShape returns [SeqLen].
func (d *SyntheticTokens) InputShape() []int { return d.shape }

// NumClasses returns the label arity.
func (d *SyntheticTokens) NumClasses() int { return d.Classes }

// Sample generates token ids for item i; the label is a deterministic keyed
// function of the tokens so it is learnable.
//
//easyscale:hotpath
func (d *SyntheticTokens) Sample(i int, dst []float32, aug *rng.Stream) int {
	if len(dst) != d.SeqLen {
		panic("data: token Sample dst size")
	}
	s := rng.Indexed(d.seed, "tok-", i)
	sum := 0
	for j := 0; j < d.SeqLen; j++ {
		t := s.Intn(d.Vocab)
		dst[j] = float32(t)
		sum += t * (j + 1)
	}
	return sum % d.Classes
}

// Slice views items [Start, Start+N) of a base dataset — the held-out split
// mechanism: synthetic datasets generate items for any index from the same
// distribution, so a disjoint index range is a proper validation set.
type Slice struct {
	Base     Dataset
	Start, N int
}

// NewSlice builds a dataset view of n items starting at start.
func NewSlice(base Dataset, start, n int) *Slice {
	if start < 0 || n <= 0 {
		panic("data: invalid slice range")
	}
	return &Slice{Base: base, Start: start, N: n}
}

// Len returns the slice size.
func (s *Slice) Len() int { return s.N }

// InputShape returns the base item shape.
func (s *Slice) InputShape() []int { return s.Base.InputShape() }

// NumClasses returns the base label arity.
func (s *Slice) NumClasses() int { return s.Base.NumClasses() }

// Sample materializes base item Start+i.
func (s *Slice) Sample(i int, dst []float32, aug *rng.Stream) int {
	if i < 0 || i >= s.N {
		panic(fmt.Sprintf("data: slice index %d out of [0,%d)", i, s.N))
	}
	return s.Base.Sample(s.Start+i, dst, aug)
}

// MaterializeBatch returns a new batch tensor and label slice filled from
// dataset indices: MaterializeInto into memory of its own.
func MaterializeBatch(ds Dataset, indices []int, aug *rng.Stream) (*tensor.Tensor, []int) {
	var buf [4]int
	x := tensor.New(append(append(buf[:0], len(indices)), ds.InputShape()...)...)
	labels := make([]int, len(indices))
	MaterializeInto(x, labels, ds, indices, aug)
	return x, labels
}

// MaterializeInto fills x (one item per index, every element written) and
// labels (one per index) from dataset indices, drawing augmentation
// randomness from aug in index order. The draw order is part of the training
// semantics: it must match across elastic restarts.
//
//easyscale:hotpath
func MaterializeInto(x *tensor.Tensor, labels []int, ds Dataset, indices []int, aug *rng.Stream) {
	itemSz := tensor.Numel(ds.InputShape())
	if x.Size() != len(indices)*itemSz || len(labels) != len(indices) {
		panic("data: MaterializeInto destination does not fit the batch")
	}
	for bi, idx := range indices {
		labels[bi] = ds.Sample(idx, x.Data[bi*itemSz:(bi+1)*itemSz], aug)
	}
}
