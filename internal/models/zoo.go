package models

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Workload is one Table 1 entry: a network, its loss, its dataset, and the
// metadata EasyScale's model scanner and scheduler need.
type Workload struct {
	Name        string
	Task        string
	DatasetName string
	// UsesVendorKernels marks conv-family models that rely on
	// vendor-optimized kernels: they pay the D2 efficiency penalty and are
	// restricted to homogeneous GPUs when that penalty is unacceptable.
	UsesVendorKernels bool
	Classes           int
	DefaultBatch      int

	Net     nn.Layer
	Loss    LossFn
	Dataset data.Dataset
	// EvalDataset is a held-out set drawn from the same distribution with a
	// shifted seed, used for validation accuracy (Figures 2 and 3).
	EvalDataset data.Dataset

	params []*nn.Parameter
}

// Params returns the trainable parameters of the network, Net.Params() as
// its build handed them out: shared, not to be modified.
func (w *Workload) Params() []*nn.Parameter { return w.params }

// StateTensors returns the network's implicit-state buffers (BatchNorm
// running statistics), empty for stateless nets.
func (w *Workload) StateTensors() []*tensor.Tensor {
	if st, ok := w.Net.(nn.Stateful); ok {
		return st.StateTensors()
	}
	return nil
}

// Synthetic-dataset geometry shared between a workload's network and its
// training set: images, token sequences (bert, electra), and the neumf
// interaction matrix.
const (
	imgC, imgH, imgW = 3, 8, 8
	imgClasses       = 10
	datasetSize      = 1024

	tokVocab, tokSeqLen, tokClasses = 64, 8, 4
	neumfUsers, neumfItems          = 64, 128
)

// builder describes one registered workload. The network and the training
// set have separate constructors so BuildNet can produce a model replica
// without generating a dataset.
type builder struct {
	task, dataset  string
	vendor         bool
	classes, batch int
	net            func(b *nn.Builder) (nn.Layer, LossFn)
	data           func(seed uint64) data.Dataset
}

func imgDataset(seed uint64) data.Dataset {
	return data.NewSyntheticImages(datasetSize, imgClasses, imgC, imgH, imgW, seed)
}

func tokenDataset(seed uint64) data.Dataset {
	return data.NewSyntheticTokens(datasetSize, tokVocab, tokSeqLen, tokClasses, seed)
}

// transformerBlock is a pre-norm transformer block: x += MHA(LN(x));
// x += FFN(LN(x)).
func transformerBlock(d, heads int, b *nn.Builder) []nn.Layer {
	return []nn.Layer{
		nn.NewResidual(nn.NewSequential(
			nn.NewLayerNorm(d, b),
			nn.NewMultiHeadAttention(d, heads, b),
		)),
		nn.NewResidual(nn.NewSequential(
			nn.NewLayerNorm(d, b),
			nn.NewLinear(d, 2*d, true, b),
			nn.NewGELU(),
			nn.NewLinear(2*d, d, true, b),
			nn.NewDropout(0.1),
		)),
	}
}

var registry = map[string]builder{
	"shufflenetv2": {task: "Image Classification", dataset: "ImageNet(synthetic)", vendor: true,
		classes: imgClasses, batch: 8, data: imgDataset,
		net: func(b *nn.Builder) (nn.Layer, LossFn) {
			net := nn.NewSequential(
				nn.NewConv2D(imgC, 8, 3, 1, 1, false, b),
				nn.NewBatchNorm2D(8, b),
				nn.NewReLU(),
				nn.NewConv2D(8, 16, 3, 2, 1, false, b),
				nn.NewBatchNorm2D(16, b),
				nn.NewReLU(),
				nn.NewGlobalAvgPool(),
				nn.NewLinear(16, imgClasses, true, b),
			)
			return net, NewCrossEntropyLoss()
		}},
	"resnet50": {task: "Image Classification", dataset: "ImageNet(synthetic)", vendor: true,
		classes: imgClasses, batch: 8, data: imgDataset,
		net: func(b *nn.Builder) (nn.Layer, LossFn) {
			block := func() nn.Layer {
				return nn.NewResidual(nn.NewSequential(
					nn.NewConv2D(8, 8, 3, 1, 1, false, b),
					nn.NewBatchNorm2D(8, b),
					nn.NewReLU(),
					nn.NewConv2D(8, 8, 3, 1, 1, false, b),
					nn.NewBatchNorm2D(8, b),
				))
			}
			net := nn.NewSequential(
				nn.NewConv2D(imgC, 8, 3, 1, 1, false, b),
				nn.NewBatchNorm2D(8, b),
				nn.NewReLU(),
				block(),
				nn.NewReLU(),
				block(),
				nn.NewReLU(),
				nn.NewGlobalAvgPool(),
				nn.NewLinear(8, imgClasses, true, b),
			)
			return net, NewCrossEntropyLoss()
		}},
	"vgg19": {task: "Image Classification", dataset: "ImageNet(synthetic)", vendor: true,
		classes: imgClasses, batch: 8, data: imgDataset,
		net: func(b *nn.Builder) (nn.Layer, LossFn) {
			net := nn.NewSequential(
				nn.NewConv2D(imgC, 8, 3, 1, 1, true, b),
				nn.NewReLU(),
				nn.NewMaxPool2D(2, 2),
				nn.NewConv2D(8, 16, 3, 1, 1, true, b),
				nn.NewReLU(),
				nn.NewMaxPool2D(2, 2),
				nn.NewFlatten(),
				nn.NewLinear(16*2*2, 32, true, b),
				nn.NewReLU(),
				nn.NewDropout(0.5),
				nn.NewLinear(32, imgClasses, true, b),
			)
			return net, NewCrossEntropyLoss()
		}},
	"yolov3": {task: "Object Detection", dataset: "PASCAL(synthetic)", vendor: true,
		classes: imgClasses, batch: 8, data: imgDataset,
		net: func(b *nn.Builder) (nn.Layer, LossFn) {
			net := nn.NewSequential(
				nn.NewConv2D(imgC, 8, 3, 1, 1, false, b),
				nn.NewBatchNorm2D(8, b),
				nn.NewReLU(),
				nn.NewConv2D(8, 16, 3, 2, 1, false, b),
				nn.NewBatchNorm2D(16, b),
				nn.NewReLU(),
				nn.NewConv2D(16, 16, 3, 1, 1, false, b),
				nn.NewBatchNorm2D(16, b),
				nn.NewReLU(),
				nn.NewGlobalAvgPool(),
				nn.NewLinear(16, imgClasses, true, b),
			)
			return net, NewCrossEntropyLoss()
		}},
	"mlp": {task: "Image Classification", dataset: "ImageNet(synthetic)", vendor: false,
		classes: imgClasses, batch: 8, data: imgDataset,
		net: func(b *nn.Builder) (nn.Layer, LossFn) {
			net := nn.NewSequential(
				nn.NewFlatten(),
				nn.NewLinear(imgC*imgH*imgW, 64, true, b),
				nn.NewReLU(),
				nn.NewLinear(64, 32, true, b),
				nn.NewReLU(),
				nn.NewLinear(32, imgClasses, true, b),
			)
			return net, NewCrossEntropyLoss()
		}},
	"neumf": {task: "Recommendation", dataset: "MovieLens(synthetic)", vendor: false,
		classes: 2, batch: 16,
		data: func(seed uint64) data.Dataset {
			return data.NewSyntheticInteractions(datasetSize, neumfUsers, neumfItems, seed)
		},
		net: func(b *nn.Builder) (nn.Layer, LossFn) {
			return NewNeuMF(neumfUsers, neumfItems, 16, b), NewBCELoss()
		}},
	"bert": {task: "Question Answering", dataset: "SQuAD(synthetic)", vendor: false,
		classes: tokClasses, batch: 8, data: tokenDataset,
		net: func(b *nn.Builder) (nn.Layer, LossFn) {
			const d = 16
			layers := []nn.Layer{nn.NewEmbedding(tokVocab, d, b)}
			layers = append(layers, transformerBlock(d, 2, b)...)
			layers = append(layers, transformerBlock(d, 2, b)...)
			layers = append(layers, nn.NewMeanPool(), nn.NewLinear(d, tokClasses, true, b))
			return nn.NewSequential(layers...), NewCrossEntropyLoss()
		}},
	"electra": {task: "Question Answering", dataset: "SQuAD(synthetic)", vendor: false,
		classes: tokClasses, batch: 8, data: tokenDataset,
		net: func(b *nn.Builder) (nn.Layer, LossFn) {
			const d = 12
			layers := []nn.Layer{nn.NewEmbedding(tokVocab, d, b)}
			layers = append(layers, transformerBlock(d, 2, b)...)
			layers = append(layers, nn.NewMeanPool(), nn.NewLinear(d, tokClasses, true, b))
			return nn.NewSequential(layers...), NewCrossEntropyLoss()
		}},
	"swintransformer": {task: "Image Classification", dataset: "ImageNet(synthetic)", vendor: false,
		classes: imgClasses, batch: 8, data: imgDataset,
		net: func(b *nn.Builder) (nn.Layer, LossFn) {
			const d = 16
			layers := []nn.Layer{nn.NewPatchEmbed(imgC, 2, d, b)}
			layers = append(layers, transformerBlock(d, 2, b)...)
			layers = append(layers, transformerBlock(d, 2, b)...)
			layers = append(layers, nn.NewMeanPool(), nn.NewLinear(d, imgClasses, true, b))
			return nn.NewSequential(layers...), NewCrossEntropyLoss()
		}},
}

// Names lists every registered workload in stable order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TableNames lists the workloads of the paper's Table 1 in stable order —
// the population the workload-trace generator draws from. Later additions to
// the registry (the serving-oriented "mlp") are deliberately excluded so the
// generated training traces, and every statistic derived from them, stay
// pinned to the paper's mix.
func TableNames() []string {
	return []string{"bert", "electra", "neumf", "resnet50", "shufflenetv2", "swintransformer", "vgg19", "yolov3"}
}

// netSizes maps a workload name to its net's nn.Sizes, recorded by its first
// build: every later build sizes its blocks exactly.
var netSizes sync.Map

// BuildNet instantiates only a workload's network and loss, none of its
// datasets, at a cost of microseconds, and returns the net's parameters in
// construction order (its Params()). Weights are drawn from init (Build
// draws from rng.NewNamed(seed, name)); a nil init leaves them zero, for a
// net whose weights are overwritten at once. A net built with like, the
// parameters of another build of the workload, takes its parameter values
// from them and allocates only its gradients and state: a replica sharing
// one set of weights.
func BuildNet(name string, init *rng.Stream, like []*nn.Parameter) (nn.Layer, []*nn.Parameter, LossFn, error) {
	reg, ok := registry[name]
	if !ok {
		return nil, nil, nil, fmt.Errorf("models: unknown workload %q (have %v)", name, Names())
	}
	recorded, _ := netSizes.Load(name)
	size, sized := recorded.(nn.Sizes)
	b := nn.NewBuilder(init, like, size)
	net, loss := reg.net(b)
	if !sized {
		netSizes.Store(name, b.Sizes())
	}
	return net, b.Params(), loss, nil
}

// Build instantiates a workload with deterministic, seed-derived
// initialization: two Build calls with the same (name, seed) produce
// bitwise-identical parameters.
func Build(name string, seed uint64) (*Workload, error) {
	return build(name, seed, rng.NewNamed(seed, name))
}

// BuildBlank is Build with every weight left zero, for a workload whose
// parameters a checkpoint restore overwrites at once.
func BuildBlank(name string, seed uint64) (*Workload, error) { return build(name, seed, nil) }

func build(name string, seed uint64, init *rng.Stream) (*Workload, error) {
	net, params, loss, err := BuildNet(name, init, nil)
	if err != nil {
		return nil, err
	}
	b := registry[name]
	return &Workload{
		Name: name, Task: b.task, DatasetName: b.dataset,
		UsesVendorKernels: b.vendor,
		Classes:           b.classes, DefaultBatch: b.batch,
		Net: net, Loss: loss, Dataset: b.data(seed),
		EvalDataset: evalDataset(name, seed),
		params:      params,
	}, nil
}

// evalDataset builds the held-out set: items [datasetSize, datasetSize+512)
// of the same seeded distribution — disjoint from every training index but
// sharing the class structure, as a validation split must.
func evalDataset(name string, seed uint64) data.Dataset {
	const evalSize = 512
	switch name {
	case "neumf":
		base := data.NewSyntheticInteractions(datasetSize+evalSize, neumfUsers, neumfItems, seed)
		return data.NewSlice(base, datasetSize, evalSize)
	case "bert", "electra":
		base := data.NewSyntheticTokens(datasetSize+evalSize, tokVocab, tokSeqLen, tokClasses, seed)
		return data.NewSlice(base, datasetSize, evalSize)
	default:
		base := data.NewSyntheticImages(datasetSize+evalSize, imgClasses, imgC, imgH, imgW, seed)
		return data.NewSlice(base, datasetSize, evalSize)
	}
}

// MustBuild is Build that panics on error, for tests and examples.
func MustBuild(name string, seed uint64) *Workload {
	w, err := Build(name, seed)
	if err != nil {
		panic(err)
	}
	return w
}

// StepTime runs one forward+loss+backward pass at the given batch size on dev
// and returns the simulated time it charged — the single step probe behind
// the capability estimates and the Figure 10 packing model.
func (w *Workload) StepTime(dev *device.Device, batch int) time.Duration {
	ctx := &nn.Context{Dev: dev, RNG: rng.New(0), Training: true}
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = i % w.Dataset.Len()
	}
	x, labels := data.MaterializeBatch(w.Dataset, idx, nil)
	before := dev.Now()
	out := w.Net.Forward(ctx, x)
	w.Loss.Forward(ctx, out, labels)
	w.Net.Backward(ctx, w.Loss.Backward(ctx))
	return dev.Now() - before
}

// StepFLOPs measures the simulated FLOP cost of one training pass at the
// given batch size on a scratch device. The result feeds the companion
// module's capability estimates.
func (w *Workload) StepFLOPs(batch int) float64 {
	dev := device.New(device.V100, device.Config{DeterministicKernels: true, Selection: device.SelectHeuristic})
	// invert the device time model: seconds × peak = flops
	return w.StepTime(dev, batch).Seconds() * dev.Spec.PeakGFLOPS * 1e9
}
