// Package device simulates the heterogeneous GPU fleet EasyScale runs on.
//
// A Device stands in for one GPU: it owns a memory budget (with CUDA-context
// accounting, the dominant cost the paper cites for worker packing), a
// simulated clock driven by an analytical kernel-time model, and — most
// importantly — the kernel selection policy that decides the floating-point
// accumulation parameters the kernels in internal/kernels will use.
//
// Three GPU types are modeled after the paper's testbed: V100, P100, and T4.
// Each type has its own hardware-specific accumulation block size (the analog
// of architecture-specific kernels compiled for a particular SM count), so
// running the same deterministic kernel on two types yields bitwise-different
// results unless the hardware-agnostic kernel (D2) is selected.
package device

import (
	"errors"
	"fmt"
	"time"
)

// Type identifies a GPU model.
type Type int

// GPU models of the paper's evaluation cluster.
const (
	V100 Type = iota
	P100
	T4
	// NumTypes is the number of modeled types: the length of a per-type
	// array indexed by Type.
	NumTypes
)

// String returns the marketing name.
func (t Type) String() string {
	switch t {
	case V100:
		return "V100"
	case P100:
		return "P100"
	case T4:
		return "T4"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// AllTypes lists every modeled GPU type.
func AllTypes() []Type { return []Type{V100, P100, T4} }

// Spec captures the static properties of a GPU type.
type Spec struct {
	Type       Type
	MemoryMB   int     // device memory capacity
	SMCount    int     // streaming multiprocessors; drives the hw-specific kernel block
	PeakGFLOPS float64 // FP32 throughput used by the analytical time model
	// KernelBlock is the accumulation block size of this architecture's
	// vendor-tuned kernels. Distinct per type: the source of heterogeneous
	// non-determinism (§3.3, "Operator implementation").
	KernelBlock int
	// ContextMB is the per-process CUDA context footprint (~750 MB per the
	// paper's measurement: 16 contexts cost 12 GB on a 16 GB V100).
	ContextMB int
}

// Specs of the paper's three GPU types. Memory follows the 16 GB V100 the
// packing experiment references (a 32 GB V100 variant is constructed by
// overriding MemoryMB); FP32 peaks are the published numbers.
var specs = [NumTypes]Spec{
	V100: {Type: V100, MemoryMB: 16 * 1024, SMCount: 80, PeakGFLOPS: 15700, KernelBlock: 64, ContextMB: 750},
	P100: {Type: P100, MemoryMB: 16 * 1024, SMCount: 56, PeakGFLOPS: 10600, KernelBlock: 32, ContextMB: 750},
	T4:   {Type: T4, MemoryMB: 16 * 1024, SMCount: 40, PeakGFLOPS: 8100, KernelBlock: 16, ContextMB: 750},
}

// SpecOf returns the spec for a GPU type.
func SpecOf(t Type) Spec {
	if t < 0 || t >= NumTypes {
		panic(fmt.Sprintf("device: unknown type %d", int(t)))
	}
	return specs[t]
}

// AgnosticBlock is the accumulation block size of the hardware-agnostic (D2)
// kernels: a fixed tile that every modeled GPU type can run, at the price of
// not using the architecture's full width.
const AgnosticBlock = 8

// Selection is the kernel selection policy — the analog of how cuDNN/cuBLAS
// pick an implementation.
type Selection int

const (
	// SelectHeuristic picks the architecture's vendor-tuned kernel
	// deterministically (PyTorch default with cudnn.benchmark=false).
	// Deterministic per type, but differs across types.
	SelectHeuristic Selection = iota
	// SelectProfiled benchmarks candidate kernels with the wall clock and
	// picks the fastest (cudnn.benchmark=true): timing noise makes the
	// choice non-deterministic.
	SelectProfiled
	// SelectFixedAlgo pins the hardware-agnostic kernel (fixed algo_id):
	// the D2 determinism solution, identical on every GPU type.
	SelectFixedAlgo
)

// String names the selection policy.
func (s Selection) String() string {
	switch s {
	case SelectHeuristic:
		return "heuristic"
	case SelectProfiled:
		return "profiled"
	case SelectFixedAlgo:
		return "fixed-algo"
	}
	return fmt.Sprintf("Selection(%d)", int(s))
}

// CustomKernel is a user-supplied hardware-agnostic kernel definition — the
// paper's future-work path ("allow the users to customize D2 kernels") for
// recovering performance under heterogeneous determinism. The kernel is
// characterized by its accumulation block (must run identically on every GPU
// type, so it bounds to the smallest architecture) and its achieved
// convolution efficiency relative to the vendor kernels.
type CustomKernel struct {
	Name string
	// Block is the fixed accumulation block size, identical on every type.
	Block int
	// ConvEfficiency is the fraction of vendor-kernel throughput the custom
	// convolution reaches (the default agnostic kernel reaches 0.30).
	ConvEfficiency float64
}

// Validate reports whether the kernel definition is usable on every modeled
// GPU type.
func (k *CustomKernel) Validate() error {
	if k.Block <= 0 {
		return fmt.Errorf("device: custom kernel %q: block must be positive", k.Name)
	}
	for _, t := range AllTypes() {
		if k.Block > SpecOf(t).SMCount {
			return fmt.Errorf("device: custom kernel %q: block %d exceeds %s's %d SMs (not hardware-agnostic)",
				k.Name, k.Block, t, SpecOf(t).SMCount)
		}
	}
	if k.ConvEfficiency <= 0 || k.ConvEfficiency > 1 {
		return fmt.Errorf("device: custom kernel %q: conv efficiency %v outside (0,1]", k.Name, k.ConvEfficiency)
	}
	return nil
}

// Config controls the determinism-relevant behaviour of a device.
type Config struct {
	// DeterministicKernels selects fixed-order reductions instead of
	// atomics-based ones (the D0 requirement,
	// torch.use_deterministic_algorithms analog).
	DeterministicKernels bool
	// Selection is the kernel selection policy (see above).
	Selection Selection
	// Custom, when set with SelectFixedAlgo, replaces the built-in
	// hardware-agnostic kernel for D2.
	Custom *CustomKernel
}

// ErrOOM is returned when a device memory allocation exceeds capacity — the
// failure mode worker packing runs into in Figure 10.
var ErrOOM = errors.New("device: out of memory")

// Device is one simulated GPU.
type Device struct {
	Spec Spec
	cfg  Config

	usedMB float64
	peakMB float64

	clock time.Duration // simulated elapsed kernel time

	// flopsScale calibrates charged FLOPs to real-model magnitudes (the
	// networks in this repo are shrunk for CPU speed); 0 means 1.
	flopsScale float64

	// convEff/gemmEff cache the profiled efficiency of the selected kernels.
	profiledBlock int
	profiled      bool
}

// New creates a device of the given type with the given config.
func New(t Type, cfg Config) *Device {
	return &Device{Spec: SpecOf(t), cfg: cfg}
}

// NewWithMemory creates a device with an overridden memory capacity in MB
// (e.g. the 32 GB V100 used for the ShuffleNetV2 packing experiment).
func NewWithMemory(t Type, memMB int, cfg Config) *Device {
	d := New(t, cfg)
	d.Spec.MemoryMB = memMB
	return d
}

// KernelBlock returns the accumulation block size the current selection
// policy dictates. This value is handed to the blocked kernels and is the
// single knob through which hardware heterogeneity, profiling noise, and D2
// pinning manifest.
func (d *Device) KernelBlock() int {
	switch d.cfg.Selection {
	case SelectFixedAlgo:
		if d.cfg.Custom != nil {
			return d.cfg.Custom.Block
		}
		return AgnosticBlock
	case SelectProfiled:
		if !d.profiled {
			d.profiledBlock = profileBlock(d.Spec)
			d.profiled = true
		}
		return d.profiledBlock
	default:
		return d.Spec.KernelBlock
	}
}

// DeterministicKernels reports whether fixed-order kernels are in force.
func (d *Device) DeterministicKernels() bool { return d.cfg.DeterministicKernels }

// AtomicWorkers returns the chunk count of the atomics-based kernels — how
// many partials they combine in an entropy-drawn order — derived from the SM
// count.
func (d *Device) AtomicWorkers() int {
	w := d.Spec.SMCount / 10
	if w < 2 {
		w = 2
	}
	return w
}

// profileBlock simulates cudnn.benchmark: run each candidate briefly, time it
// with the wall clock, pick the fastest. Machine noise decides near-ties, so
// the selection is genuinely non-deterministic — which is why D0 disables it.
func profileBlock(spec Spec) int {
	candidates := []int{16, 32, 64}
	best, bestTime := candidates[0], time.Duration(1<<62)
	buf := make([]float32, 4096)
	for i := range buf {
		buf[i] = float32(i%7) * 0.25
	}
	for _, c := range candidates {
		//detlint:ignore walltime -- deliberate cudnn.benchmark-style profiling (SelectProfiled): timing candidate kernels with the wall clock is the modeled non-determinism D0 disables via SelectHeuristic/SelectFixedAlgo
		start := time.Now()
		var sink float32
		for rep := 0; rep < 3; rep++ {
			var part float32
			for i := 0; i < len(buf); i += c {
				end := i + c
				if end > len(buf) {
					end = len(buf)
				}
				var p float32
				for _, v := range buf[i:end] {
					p += v
				}
				part += p
			}
			sink += part
		}
		_ = sink
		//detlint:ignore walltime -- deliberate cudnn.benchmark-style profiling: machine noise deciding near-ties is the point (DESIGN.md kernel-selection mechanism)
		if el := time.Since(start); el < bestTime {
			best, bestTime = c, el
		}
	}
	return best
}

// --- memory accounting -------------------------------------------------

// Alloc reserves mb megabytes of device memory, returning ErrOOM if the
// capacity would be exceeded.
func (d *Device) Alloc(mb float64) error {
	if mb < 0 {
		panic("device: negative allocation")
	}
	if d.usedMB+mb > float64(d.Spec.MemoryMB) {
		return fmt.Errorf("%w: want %.0f MB, used %.0f MB of %d MB on %s",
			ErrOOM, mb, d.usedMB, d.Spec.MemoryMB, d.Spec.Type)
	}
	d.usedMB += mb
	if d.usedMB > d.peakMB {
		d.peakMB = d.usedMB
	}
	return nil
}

// Free releases mb megabytes.
func (d *Device) Free(mb float64) {
	d.usedMB -= mb
	if d.usedMB < -1e-6 {
		panic("device: negative used memory — double free")
	}
	if d.usedMB < 0 {
		d.usedMB = 0
	}
}

// UsedMB returns the currently allocated device memory.
func (d *Device) UsedMB() float64 { return d.usedMB }

// PeakMB returns the high-water mark of device memory usage.
func (d *Device) PeakMB() float64 { return d.peakMB }

// --- simulated time ------------------------------------------------------

// Efficiency factors of kernel families under each selection policy. The
// hardware-agnostic conv kernel runs at a fraction of the vendor kernel's
// throughput, producing the ~236% average overhead Figure 12 reports for
// conv-heavy models; GEMM-family agnostic kernels are near-parity, which is
// why transformer/MF models see <1% overhead.
const (
	convAgnosticEff = 0.30
	gemmAgnosticEff = 0.995
)

// ConvEfficiency returns the relative throughput of the selected convolution
// kernel.
func (d *Device) ConvEfficiency() float64 {
	if d.cfg.Selection == SelectFixedAlgo {
		if d.cfg.Custom != nil {
			return d.cfg.Custom.ConvEfficiency
		}
		return convAgnosticEff
	}
	return 1.0
}

// GemmEfficiency returns the relative throughput of the selected GEMM kernel.
func (d *Device) GemmEfficiency() float64 {
	if d.cfg.Selection == SelectFixedAlgo {
		return gemmAgnosticEff
	}
	return 1.0
}

// SetFLOPsScale calibrates the time model: every subsequent charge is
// multiplied by scale (used to map the shrunk networks onto real model
// magnitudes).
func (d *Device) SetFLOPsScale(scale float64) { d.flopsScale = scale }

// FLOPsScale returns the current calibration factor (1 when unset).
func (d *Device) FLOPsScale() float64 {
	if d.flopsScale <= 0 {
		return 1
	}
	return d.flopsScale
}

// ChargeFLOPs advances the simulated clock by the time `flops` floating-point
// operations take at the given kernel efficiency.
func (d *Device) ChargeFLOPs(flops, efficiency float64) {
	if flops <= 0 {
		return
	}
	if efficiency <= 0 {
		efficiency = 1
	}
	sec := flops * d.FLOPsScale() / (d.Spec.PeakGFLOPS * 1e9 * efficiency)
	d.clock += time.Duration(sec * float64(time.Second))
}

// ChargeTime advances the simulated clock directly (fixed overheads such as
// context switching or gradient copies).
func (d *Device) ChargeTime(dt time.Duration) {
	if dt > 0 {
		d.clock += dt
	}
}

// Now returns the simulated elapsed time on this device.
func (d *Device) Now() time.Duration { return d.clock }
