package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The traced run. It measures every layer on its own, by timing calls into
// the layer's public functions with a span around each, then runs the chosen
// workload in alternating traced and untraced blocks to price the spans
// themselves. Every traced run reports every per-layer metric, whichever
// workload it was asked for: the probes do not depend on the workload, only
// bench.span_overhead_pct and the workload's own spans do.

// layerMetric names one per-layer metric, in the order BENCHMARK.json lists.
type layerMetric struct {
	name, unit string
	higher     bool // whether a larger value is the better one
}

var perLayer = []layerMetric{
	{"kernels.gemm_gflops", "GFLOP/s", true},
	{"kernels.gemm_atb_gflops", "GFLOP/s", true},
	{"kernels.gemm_abt_gflops", "GFLOP/s", true},
	{"kernels.gemm_par_gflops", "GFLOP/s", true},
	{"kernels.conv_fwd_gflops", "GFLOP/s", true},
	{"kernels.conv_bwd_gflops", "GFLOP/s", true},
	{"kernels.small_gemm_us", "us", false},
	{"kernels.elem_gbps", "GB/s", true},
	{"nn.fwd_ms.resnet50", "ms", false},
	{"nn.bwd_ms.resnet50", "ms", false},
	{"nn.fwd_ms.bert", "ms", false},
	{"nn.bwd_ms.bert", "ms", false},
	{"data.batch_ms", "ms", false},
	{"comm.allreduce_ms", "ms", false},
	{"comm.allreduce_gbps", "GB/s", true},
	{"comm.buckets", "count", false},
	{"optim.step_ms", "ms", false},
	{"core.step_ms", "ms", false},
	{"core.step_residual_ms", "ms", false},
	{"core.step_ms.shared", "ms", false},
	{"core.step_ms.solo", "ms", false},
	{"core.step_ms.workers1", "ms", false},
	{"core.scale_ms", "ms", false},
	{"core.scale_live_ms", "ms", false},
	{"core.restore_ms", "ms", false},
	{"checkpoint.shards_cold_ms", "ms", false},
	{"checkpoint.shards_delta_ms", "ms", false},
	{"checkpoint.shards_reused_share", "ratio", true},
	{"checkpoint.container_kb", "KB", false},
	{"checkpoint.encode_mbps", "MB/s", true},
	{"checkpoint.decode_mbps", "MB/s", true},
	{"dist.run_ms.live", "ms", false},
	{"dist.run_ms.restart", "ms", false},
	{"dist.downtime_ms.live", "ms", false},
	{"dist.downtime_ms.restart", "ms", false},
	{"dist.step_ms", "ms", false},
	{"dist.frame_rt_us", "us", false},
	{"dist.codec_us", "us", false},
	{"serve.rps.batched", "1/s", true},
	{"serve.rps.unbatched", "1/s", true},
	{"serve.dispatch_us.solo", "us", false},
	{"serve.tcp_rtt_ms", "ms", false},
	{"serve.tcp_rps", "1/s", true},
	{"serve.set_replicas_ms", "ms", false},
	{"serve.rejected", "count", false},
	{"models.load_ms", "ms", false},
	{"sched.proposals_us", "us", false},
	{"sched.roundpass_us", "us", false},
	{"sched.grant_us", "us", false},
	{"controlplane.submit_us", "us", false},
	{"controlplane.tick_ms.early", "ms", false},
	{"controlplane.tick_ms.late", "ms", false},
	{"controlplane.decisions", "count", true},
	{"controlplane.borrows", "count", true},
	{"controlplane.reclaims", "count", false},
	{"controlplane.reservations_open", "count", false},
	{"controlplane.utilization", "ratio", true},
	{"controlplane.log_kb", "KB", false},
	{"cluster.sim_days_per_s", "1/s", true},
	{"obs.trace_overhead_pct.train", "%", false},
	{"obs.trace_overhead_pct.serve", "%", false},
	{"bench.span_overhead_pct", "%", false},
}

// prober runs the layer probes of one traced run.
type prober struct {
	seed uint64
	rec  *recorder
	ln   *lane
	out  map[string]float64
	ops  int // op ids handed out so far
	err  error
}

func (p *prober) set(name string, v float64) { p.out[name] = v }

// fail remembers the first error; later probes still run, so one broken layer
// does not hide the others' numbers.
func (p *prober) fail(what string, err error) {
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("%s: %w", what, err)
	}
}

// timed takes n samples, each inside its own span, and returns them in ms. A
// sample is inner back-to-back calls of fn (more than one for calls too
// short to time one by one) and is reported per call.
func (p *prober) timed(span string, n, inner int, fn func()) []float64 {
	p.ops++
	parent := p.ln.open("probe:"+span, -1, p.ops)
	out := make([]float64, n)
	for i := range out {
		t0 := now()
		id := p.ln.open(span, parent, p.ops)
		for k := 0; k < inner; k++ {
			fn()
		}
		p.ln.close(id)
		out[i] = ms(since(t0)) / float64(inner)
	}
	p.ln.close(parent)
	return out
}

// kcAgnostic is the reduction block of the hardware-agnostic (D2) kernels,
// the ones a mixed-GPU placement runs.
const kcAgnostic = device.AgnosticBlock

// resnetConv is resnet50's 3x3 residual layer at the workload's EST batch:
// per image an im2col GEMM of [8 x 72] by [72 x 64], the largest in the model.
var resnetConv = kernels.ConvDims{Batch: trainBatch, CIn: 8, H: 8, W: 8, COut: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}

func filled(n int, g *splitmix) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(g.intn(2001)-1000) / 1000
	}
	return out
}

func (p *prober) kernelProbes() {
	g := newSplitmix(p.seed, "kernel-operands")
	m, k, n := resnetConv.COut, resnetConv.ColRows(), resnetConv.ColCols()
	a, b, dst := filled(m*k, g), filled(k*n, g), make([]float32, m*n)
	const samples = 31
	gflops := func(flops int, perCallMs float64) float64 { return float64(flops) / (perCallMs * 1e6) }
	gemm := func(name string, f func(dst, a, b []float32, m, k, n, kc int)) {
		d := p.timed(name, samples, 200, func() { f(dst, a, b, m, k, n, kcAgnostic) })
		p.set(name, gflops(2*m*k*n, median(d)))
	}
	gemm("kernels.gemm_gflops", kernels.MatMul)
	gemm("kernels.gemm_atb_gflops", kernels.MatMulATB)
	gemm("kernels.gemm_abt_gflops", kernels.MatMulABT)
	gemm("kernels.gemm_par_gflops", kernels.MatMulParallel)

	c := resnetConv
	src, weight := filled(c.Batch*c.CIn*c.H*c.W, g), filled(c.COut*k, g)
	out := make([]float32, c.Batch*c.COut*n)
	convFlops := 2 * c.Batch * c.COut * k * n
	d := p.timed("kernels.conv_fwd_gflops", samples, 50, func() { kernels.Conv2D(out, src, weight, nil, c, kcAgnostic) })
	p.set("kernels.conv_fwd_gflops", gflops(convFlops, median(d)))
	gradOut, gradSrc, gradW := filled(len(out), g), make([]float32, len(src)), make([]float32, len(weight))
	d = p.timed("kernels.conv_bwd_gflops", samples, 50, func() {
		kernels.Conv2DBackward(gradSrc, gradW, nil, src, weight, gradOut, c, kcAgnostic)
	})
	p.set("kernels.conv_bwd_gflops", gflops(2*convFlops, median(d)))

	// bert's attention-times-values product: [8 x 8] by [8 x 8] per head
	const l = 8
	sa, sb, sd := filled(l*l, g), filled(l*l, g), make([]float32, l*l)
	d = p.timed("kernels.small_gemm_us", samples, 2000, func() { kernels.MatMul(sd, sa, sb, l, l, l, kcAgnostic) })
	p.set("kernels.small_gemm_us", 1e3*median(d))

	const elems = 1 << 20
	x, y := filled(elems, g), make([]float32, elems)
	d = p.timed("kernels.elem_gbps", samples, 4, func() { kernels.AddF32(y, x) })
	p.set("kernels.elem_gbps", 3*4*elems/(median(d)*1e6)) // two reads and a write of 4 bytes per element
}

// netProbe is one EST's worth of a model: its network, loader and context.
type netProbe struct {
	w      *models.Workload
	loader *data.Loader
	ctx    *nn.Context
	step   int
	epoch  int
}

func newNetProbe(model string, seed uint64) (*netProbe, error) {
	w, err := models.Build(model, seed)
	if err != nil {
		return nil, err
	}
	cfg := trainConfig(seed)
	sampler := data.NewElasticSampler(w.Dataset.Len(), cfg.NumESTs, cfg.BatchPerEST, seed)
	return &netProbe{
		w:      w,
		loader: data.NewLoader(w.Dataset, sampler, cfg.DataWorkersPerEST, seed),
		ctx: &nn.Context{
			Dev: device.New(device.V100, cfg.DeviceConfig()), RNG: rng.NewNamed(seed, "bench-dropout"),
			Training: true, Scratch: pool.NewScope(),
		},
	}, nil
}

// batch draws EST 0's next mini-batch, rolling the epoch over as a job would.
func (np *netProbe) batch() (*tensor.Tensor, []int) {
	if np.step == np.loader.Sampler.StepsPerEpoch() {
		np.step = 0
		np.epoch++
		np.loader.SetEpoch(np.epoch)
	}
	x, labels := np.loader.Batch(np.step, 0)
	np.step++
	return x, labels
}

// estPass runs one EST's batch, forward and backward pass on the probe's own
// copy of the network, each under its own span, and returns their times in ms.
func (p *prober) estPass(np *netProbe, parent int) (batchMs, fwdMs, bwdMs float64) {
	t0 := now()
	id := p.ln.open("data.Loader.Batch", parent, p.ops)
	x, labels := np.batch()
	p.ln.close(id)
	t1 := now()
	for _, prm := range np.w.Params() {
		prm.ZeroGrad()
	}
	t2 := now()
	id = p.ln.open("nn.Forward+Loss", parent, p.ops)
	out := np.w.Net.Forward(np.ctx, x)
	np.w.Loss.Forward(np.ctx, out, labels)
	p.ln.close(id)
	t3 := now()
	id = p.ln.open("nn.Backward", parent, p.ops)
	np.w.Net.Backward(np.ctx, np.w.Loss.Backward(np.ctx))
	p.ln.close(id)
	t4 := now()
	np.ctx.Scratch.ReleaseAll()
	return ms(t1.Sub(t0)), ms(t3.Sub(t2)), ms(t4.Sub(t3))
}

// stepProbes times RunStep on the train_conv placement against its parts.
// Each iteration runs one global step and then, on a stand-alone copy of the
// network, the four EST passes that step contains: taken back to back, the
// two see the same machine, so their difference — context switches, gradient
// copies, bookkeeping — is not drowned by the host's drift.
func (p *prober) stepProbes() {
	j, err := newTrainJob(p.seed, "resnet50", core.EvenPlacement(trainESTs, device.V100, device.P100))
	if err != nil {
		p.fail("step probe", err)
		return
	}
	np, err := newNetProbe("resnet50", p.seed)
	if err != nil {
		p.fail("step probe", err)
		return
	}
	const warm, n = 20, 120
	var stepMs, restMs, batchMs, fwdMs, bwdMs []float64
	p.ops++
	parent := p.ln.open("probe:core.RunStep", -1, p.ops)
	for i := 0; i < warm+n; i++ {
		t0 := now()
		id := p.ln.open("core.RunStep", parent, p.ops)
		p.fail("core.RunStep", j.RunStep())
		p.ln.close(id)
		step, parts := ms(since(t0)), 0.0
		for e := 0; e < trainESTs; e++ {
			b, f, w := p.estPass(np, parent)
			parts += b + f + w
			if i >= warm {
				batchMs, fwdMs, bwdMs = append(batchMs, b), append(fwdMs, f), append(bwdMs, w)
			}
		}
		if i >= warm {
			stepMs, restMs = append(stepMs, step), append(restMs, step-parts)
		}
	}
	p.ln.close(parent)
	p.set("core.step_ms", median(stepMs))
	p.set("data.batch_ms", median(batchMs))
	p.set("nn.fwd_ms.resnet50", median(fwdMs))
	p.set("nn.bwd_ms.resnet50", median(bwdMs))

	// all-reduce over the four gradient sets the job's last step left
	// behind, through the job's own (rebuilt) bucket plan
	sets := make([][]*tensor.Tensor, trainESTs)
	bytes := 0
	for r := range sets {
		sets[r] = j.ESTGradientSet(r)
		for _, t := range sets[r] {
			bytes += 4 * t.Size()
		}
	}
	ar := median(p.timed("comm.ElasticDDP.AllReduce", 60, 1, func() { j.DDP().AllReduce(sets, trainESTs) }))
	p.set("comm.allreduce_ms", ar)
	p.set("comm.allreduce_gbps", float64(bytes)/(ar*1e6))
	p.set("comm.buckets", float64(j.DDP().NumBuckets()))
	cfg := trainConfig(p.seed)
	opt := median(p.timed("optim.SGD.Step", 60, 1, optim.NewSGD(np.w.Params(), cfg.LR, cfg.Momentum, cfg.WeightDecay).Step))
	p.set("optim.step_ms", opt)
	p.set("core.step_residual_ms", median(restMs)-ar-opt)
}

// nnProbes times bert's EST pass, the compute inside a churn_live step.
func (p *prober) nnProbes() {
	np, err := newNetProbe(churnModel, p.seed)
	if err != nil {
		p.fail("nn probe", err)
		return
	}
	var fwdMs, bwdMs []float64
	p.ops++
	parent := p.ln.open("probe:nn."+churnModel, -1, p.ops)
	for i := 0; i < 80; i++ {
		_, f, w := p.estPass(np, parent)
		fwdMs, bwdMs = append(fwdMs, f), append(bwdMs, w)
	}
	p.ln.close(parent)
	p.set("nn.fwd_ms."+churnModel, median(fwdMs))
	p.set("nn.bwd_ms."+churnModel, median(bwdMs))
}

// placementProbes times RunStep where only the placement or the kernel
// worker count differs from train_conv's.
func (p *prober) placementProbes() {
	v := device.V100
	stepMs := func(span string, pl core.Placement) float64 {
		j, err := newTrainJob(p.seed, "resnet50", pl)
		if err != nil {
			p.fail(span, err)
			return 0
		}
		for i := 0; i < 20; i++ {
			p.fail(span, j.RunStep())
		}
		return median(p.timed(span, 100, 1, func() { p.fail(span, j.RunStep()) }))
	}
	// four ESTs time-slicing one GPU against one EST per GPU: the difference
	// is context switching
	p.set("core.step_ms.shared", stepMs("core.RunStep/shared", core.EvenPlacement(trainESTs, v)))
	p.set("core.step_ms.solo", stepMs("core.RunStep/solo", core.EvenPlacement(trainESTs, v, v, v, v)))
	kernels.SetParallelism(1)
	p.set("core.step_ms.workers1", stepMs("core.RunStep/workers1", core.EvenPlacement(trainESTs, v, device.P100)))
	kernels.SetParallelism(0) // back to the program's default
}

// elasticProbes times the reconfiguration paths and the checkpoint layer on
// the model churn_live trains.
func (p *prober) elasticProbes() {
	v, pp := device.V100, device.P100
	a, b := core.EvenPlacement(trainESTs, v, v), core.EvenPlacement(trainESTs, v, pp)
	cfg := trainConfig(p.seed)
	const n = 12

	var cold, delta, reused []float64
	var m checkpoint.Manifest
	var set *checkpoint.ShardSet
	var j *core.Job
	for i := 0; i < 6; i++ {
		var err error
		if j, err = newTrainJob(p.seed, churnModel, a); err != nil {
			p.fail("checkpoint probe", err)
			return
		}
		p.fail("checkpoint probe", j.RunSteps(2))
		var m0 checkpoint.Manifest
		cold = append(cold, p.timed("core.Job.BuildShards/cold", 1, 1, func() { m0, _ = j.BuildShards() })...)
		p.fail("checkpoint probe", j.RunStep())
		delta = append(delta, p.timed("core.Job.BuildShards/delta", 1, 1, func() { m, set = j.BuildShards() })...)
		reused = append(reused, 1-float64(len(m.Diff(m0)))/float64(len(m.Entries)))
	}
	p.set("checkpoint.shards_cold_ms", median(cold))
	p.set("checkpoint.shards_delta_ms", median(delta))
	p.set("checkpoint.shards_reused_share", median(reused))

	var container []byte
	enc := median(p.timed("checkpoint.EncodeContainer", n, 1, func() {
		var err error
		container, err = checkpoint.EncodeContainer(m, set)
		p.fail("checkpoint.EncodeContainer", err)
	}))
	dec := median(p.timed("checkpoint.DecodeContainer", n, 1, func() {
		_, _, err := checkpoint.DecodeContainer(container)
		p.fail("checkpoint.DecodeContainer", err)
	}))
	p.set("checkpoint.container_kb", float64(len(container))/1024)
	p.set("checkpoint.encode_mbps", float64(len(container))/(enc*1e3))
	p.set("checkpoint.decode_mbps", float64(len(container))/(dec*1e3))
	p.set("core.restore_ms", median(p.timed("core.RestoreJobShards", n, 1, func() {
		_, err := core.RestoreJobShards(cfg, m, set)
		p.fail("core.RestoreJobShards", err)
	})))

	flip := func(scale func(core.Placement) error) func() {
		next := b
		return func() {
			p.fail("scale", scale(next))
			if next.Homogeneous() {
				next = b
			} else {
				next = a
			}
		}
	}
	p.set("core.scale_ms", median(p.timed("core.Job.Scale", n, 1, flip(j.Scale))))
	p.set("core.scale_live_ms", median(p.timed("core.Job.ScaleLive", n, 1, flip(j.ScaleLive))))
}

// scaleDowntimes reads the per-scale-event downtime off the program's own
// dist tracer: from each dist.scale-trigger but the first (the cold start) to
// the earliest dist.first-step after it.
func scaleDowntimes(tr *obs.Tracer) []float64 {
	var triggers, firsts []int64
	for _, track := range tr.Spans() {
		for _, s := range track {
			switch s.Name {
			case "dist.scale-trigger":
				triggers = append(triggers, s.Start)
			case "dist.first-step":
				firsts = append(firsts, s.Start)
			}
		}
	}
	sort.Slice(triggers, func(i, j int) bool { return triggers[i] < triggers[j] })
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	var out []float64
	for _, trig := range triggers[min(1, len(triggers)):] {
		if i := sort.Search(len(firsts), func(i int) bool { return firsts[i] >= trig }); i < len(firsts) {
			out = append(out, float64(firsts[i]-trig)/1e6)
		}
	}
	return out
}

func (p *prober) distProbes() {
	cfg := trainConfig(p.seed)
	run := func(span string, phases []dist.Phase, opts ...dist.Option) func() {
		return func() {
			_, err := dist.Run(cfg, churnModel, phases, opts...)
			p.fail(span, err)
		}
	}
	short, long := churnPhases(churnStepsPerPhase), churnPhases(10*churnStepsPerPhase)
	const n = 8
	for _, mode := range []struct {
		name string
		opts []dist.Option
	}{{"live", []dist.Option{dist.WithLiveMigration()}}, {"restart", nil}} {
		span := "dist.Run/" + mode.name
		run(span, short, mode.opts...)() // warm
		p.set("dist.run_ms."+mode.name, median(p.timed(span, n, 1, run(span, short, mode.opts...))))
		var down []float64
		for i := 0; i < 3; i++ {
			tr := obs.New()
			p.timed(span+"/traced", 1, 1, run(span, short, append([]dist.Option{dist.WithTracer(tr)}, mode.opts...)...))
			down = append(down, scaleDowntimes(tr)...)
		}
		p.set("dist.downtime_ms."+mode.name, median(down))
	}
	// a step's cost inside the runtime: what ten times the steps add
	extraSteps := float64(len(long) * (long[0].Steps - short[0].Steps))
	longMs := median(p.timed("dist.Run/live/long", 3, 1, run("dist.Run/live/long", long, dist.WithLiveMigration())))
	p.set("dist.step_ms", (longMs-p.out["dist.run_ms.live"])/extraSteps)

	p.frameProbe()
	row := filled(64, newSplitmix(p.seed, "codec-row"))
	d := p.timed("dist.codec", 31, 1000, func() {
		q, err := dist.DecodePredict(dist.EncodePredict(dist.PredictRequest{ID: 1, Model: "mlp", Input: row}))
		if err == nil {
			_, err = dist.DecodePredictReply(dist.EncodePredictReply(dist.PredictReply{ID: q.ID, Output: q.Input}))
		}
		p.fail("dist.codec", err)
	})
	p.set("dist.codec_us", 1e3*median(d))
}

// frameProbe times a 64 KiB frame going to an echoing peer and coming back,
// over a loopback TCP connection.
func (p *prober) frameProbe() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.fail("dist.frame", err)
		return
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			t, payload, err := dist.ReadFrame(c)
			if err != nil || dist.WriteFrame(c, t, payload) != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		p.fail("dist.frame", err)
		return
	}
	payload := make([]byte, 64<<10)
	d := p.timed("dist.WriteFrame+ReadFrame", 300, 1, func() {
		err := dist.WriteFrame(c, dist.MsgGrads, payload)
		if err == nil {
			_, _, err = dist.ReadFrame(c)
		}
		p.fail("dist.frame", err)
	})
	c.Close()
	<-done
	p.set("dist.frame_rt_us", 1e3*median(d))
}

func (p *prober) serveProbes() {
	containers, err := serve.TrainContainers(serveModels, serveTrainSteps, p.seed)
	if err != nil {
		p.fail("serve probe", err)
		return
	}
	p.set("models.load_ms", median(p.timed("models.Load", 12, 1, func() {
		for _, name := range serveModels {
			_, err := models.Load(name, containers[name])
			p.fail("models.Load", err)
		}
	})))
	rows, err := requestRows(containers, p.seed)
	if err != nil {
		p.fail("serve probe", err)
		return
	}
	callers := len(serveModels) * serveCallers
	// saturate starts a warmed-up server with the given batch bound and
	// tracer, whose blocks push per requests per caller through it.
	saturate := func(maxBatch, per int, tr *obs.Tracer) (*serveRun, error) {
		srv, err := newServer(containers, maxBatch, tr)
		if err != nil {
			return nil, err
		}
		r := &serveRun{containers: containers, srv: srv, rows: rows, perCaller: per}
		r.load(per, nil, false) // warm
		return r, nil
	}
	rps := func(r *serveRun, span string) float64 {
		var failed int
		d := p.timed(span, 3, 1, func() {
			_, f := r.load(r.perCaller, nil, false)
			failed += f
		})
		if failed > 0 {
			p.fail(span, fmt.Errorf("%d requests failed", failed))
		}
		return float64(r.perCaller*callers) / (median(d) / 1e3)
	}

	batched, err := saturate(serveMaxBatch, 1024, nil)
	if err != nil {
		p.fail("serve probe", err)
		return
	}
	defer batched.close()
	p.set("serve.rps.batched", rps(batched, "serve.load/batched"))

	// a tracer attached to the same load: the program's own tracing cost
	traced, err := saturate(serveMaxBatch, 1024, obs.New())
	if err != nil {
		p.fail("serve probe", err)
		return
	}
	p.set("obs.trace_overhead_pct.serve", overheadPct(
		func() blockResult { return traced.block(nil) }, func() blockResult { return batched.block(nil) }, 2))
	traced.close()

	// live scaling while the callers keep the queue full
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		batched.load(4*batched.perCaller, nil, false)
	}()
	p.set("serve.set_replicas_ms", median(p.timed("serve.Server.SetReplicas", 8, 1, func() {
		for _, n := range []int{2, 1} {
			p.fail("serve.SetReplicas", batched.srv.SetReplicas(serveModels[0], n))
		}
	})))
	wg.Wait()

	unbatched, err := saturate(1, 512, nil)
	if err != nil {
		p.fail("serve probe", err)
		return
	}
	defer unbatched.close()
	p.set("serve.rps.unbatched", rps(unbatched, "serve.load/unbatched"))
	req := dist.PredictRequest{ID: 1, Model: serveModels[0], Input: rows[0][0]}
	p.set("serve.dispatch_us.solo", 1e3*median(p.timed("serve.Server.Dispatch/solo", 4000, 1, func() {
		if rep := unbatched.srv.Dispatch(req); rep.Err != "" {
			p.fail("serve.Dispatch", fmt.Errorf("%s", rep.Err))
		}
	})))

	p.tcpProbe(batched.srv, rows)
	p.set("serve.rejected", float64(batched.srv.Rejected()+unbatched.srv.Rejected()))
}

// tcpProbe drives the socket path of the serving layer: one connection per
// core, each a closed loop.
func (p *prober) tcpProbe(srv *serve.Server, rows [][][]float32) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.fail("serve.tcp", err)
		return
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	conns, per := runtime.NumCPU(), 400
	lat := make([][]float64, conns)
	var wg sync.WaitGroup
	t0 := now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int, lane *lane) {
			defer wg.Done()
			cl, err := serve.Dial(ln.Addr().String())
			if err != nil {
				p.fail("serve.Dial", err)
				return
			}
			defer cl.Close()
			m := c % len(serveModels)
			for i := 0; i < per; i++ {
				t := now()
				id := lane.open("serve.Client.Predict", -1, i)
				_, err := cl.Predict(serveModels[m], rows[m][i%len(rows[m])], 0)
				lane.close(id)
				if err != nil {
					p.fail("serve.Client.Predict", err)
					return
				}
				lat[c] = append(lat[c], ms(since(t)))
			}
		}(c, p.rec.lane(fmt.Sprintf("tcp-conn-%d", c)))
	}
	wg.Wait()
	wall := since(t0)
	ln.Close()
	<-served
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	p.set("serve.tcp_rtt_ms", median(all))
	p.set("serve.tcp_rps", float64(len(all))/wall.Seconds())
}

// schedProbes times the three scheduler passes the control plane composes: 70
// jobs propose against a small free pool (about 200 proposals), one round
// pass decides, the accepted ones are granted.
func (p *prober) schedProbes() {
	const jobs, topK = 70, 3
	var propose, round, grant []float64
	for rep := 0; rep < 15; rep++ {
		free := sched.Resources{device.V100: 64, device.P100: 32, device.T4: 32}
		intra := make(map[string]*sched.IntraJob, jobs)
		order := make([]*sched.IntraJob, jobs)
		var proposals []sched.Proposal
		for i := 0; i < jobs; i++ {
			m := tableModels[i%len(tableModels)]
			id := fmt.Sprintf("job-%02d", i)
			order[i] = sched.NewIntraJob(id, sched.NewCompanion(traceSizes[i%len(traceSizes)], controlplane.CapabilityFor(m.name)), m.homoOnly)
			intra[id] = order[i]
		}
		next := 0
		propose = append(propose, p.timed("sched.IntraJob.Proposals", 1, jobs, func() {
			proposals = append(proposals, order[next].Proposals(free, topK)...)
			next++
		})...)
		var accepted []sched.Proposal
		round = append(round, p.timed("sched.RoundPass", 1, 1, func() {
			accepted = sched.RoundPass(sched.GreedyPolicy{}, free, proposals, nil)
		})...)
		if len(accepted) == 0 {
			p.fail("sched.RoundPass", fmt.Errorf("accepted none of %d proposals", len(proposals)))
			return
		}
		next = 0
		grant = append(grant, p.timed("sched.IntraJob.Grant", 1, len(accepted), func() {
			intra[accepted[next].JobID].Grant(accepted[next])
			next++
		})...)
	}
	p.set("sched.proposals_us", 1e3*median(propose))
	p.set("sched.roundpass_us", 1e3*median(round))
	p.set("sched.grant_us", 1e3*median(grant))
}

// spanMs returns the durations (ms, in recording order) of the lane's spans
// with the given name.
func (l *lane) spanMs(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// planeProbes replays the full plane_replay trace once, traced, and reads the
// layer's numbers off the spans and the plane's own counters.
func (p *prober) planeProbes() {
	w, _ := findWorkload("plane_replay")
	sz := w.full
	trace := tenantTrace(sz.jobs, p.seed)
	replay(newPlane(), trace[:sz.warmOps], sz.warmOps*4/5, nil, nil)
	ln := p.rec.lane("plane-probe")
	pl := newPlane()
	replay(pl, trace, sz.blockOps, nil, ln)
	ticks := ln.spanMs("controlplane.Tick")
	tenth := len(ticks) / 10
	p.set("controlplane.submit_us", 1e3*median(ln.spanMs("controlplane.Submit")))
	p.set("controlplane.tick_ms.early", median(ticks[:tenth]))
	p.set("controlplane.tick_ms.late", median(ticks[len(ticks)-tenth:]))
	rep := pl.Report()
	logBytes := 0
	for _, line := range pl.DecisionLog() {
		logBytes += len(line)
	}
	p.set("controlplane.decisions", float64(pl.Decisions()))
	p.set("controlplane.borrows", float64(rep.Borrows))
	p.set("controlplane.reclaims", float64(rep.Reclaims))
	p.set("controlplane.reservations_open", float64(len(pl.OpenReservations())))
	p.set("controlplane.utilization", rep.Utilization)
	p.set("controlplane.log_kb", float64(logBytes)/1024)

	// the single-tenant trace simulator, on the paper's 64-GPU fleet
	small := tenantTrace(200, p.seed)
	for i := range small {
		small[i].Team, small[i].MinGPUs, small[i].Priority = "", 0, 0
	}
	var res cluster.Result
	d := p.timed("cluster.Simulate", 3, 1, func() {
		res = cluster.Simulate(cluster.Config{
			Mode:      cluster.EasyScaleHeter,
			Inventory: sched.Resources{device.V100: 32, device.P100: 16, device.T4: 16},
		}, small)
	})
	p.set("cluster.sim_days_per_s", res.Makespan/86400/(median(d)/1e3))
}

// overheadPct measures pairs alternating blocks of a and b and returns how
// much slower a's median op is than b's, in percent.
func overheadPct(a, b func() blockResult, pairs int) float64 {
	var pa, pb []float64
	for i := 0; i < pairs; i++ {
		pa = append(pa, measureBlock(a).p50)
		pb = append(pb, measureBlock(b).p50)
	}
	return 100 * (median(pa)/median(pb) - 1)
}

// tracerProbe prices the program's own tracer on the training path: blocks
// of resnet50 steps with an obs.Tracer attached against blocks without.
func (p *prober) tracerProbe() {
	sz := sizing{blockOps: 100, warmOps: 30}
	plain, err := setupTrain(p.seed, sz)
	if err != nil {
		p.fail("tracer probe", err)
		return
	}
	defer plain.close()
	traced, err := setupTrain(p.seed, sz)
	if err != nil {
		p.fail("tracer probe", err)
		return
	}
	defer traced.close()
	traced.(*trainRun).job.SetTracer(obs.New())
	p.set("obs.trace_overhead_pct.train", overheadPct(
		func() blockResult { return traced.block(nil) }, func() blockResult { return plain.block(nil) }, 2))
}

// tracedRun is --trace 1: every layer probe, then the workload itself in
// alternating traced and untraced blocks, then the span file.
func tracedRun(w workloadDef, seed uint64) (result, error) {
	rec := newRecorder()
	p := &prober{seed: seed, rec: rec, ln: rec.lane("probes"), out: map[string]float64{}}
	p.kernelProbes()
	p.stepProbes()
	p.nnProbes()
	p.placementProbes()
	p.tracerProbe()
	p.elasticProbes()
	p.distProbes()
	p.serveProbes()
	p.schedProbes()
	p.planeProbes()

	inst, err := w.setup(seed, w.traced)
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	res := result{Metrics: map[string]metricValue{}}
	block := func(rec *recorder) func() blockResult {
		return func() blockResult {
			r := inst.block(rec)
			res.Attempted += r.ops
			res.Failed += r.failed
			return r
		}
	}
	p.set("bench.span_overhead_pct", overheadPct(block(rec), block(nil), w.traced.blocks))
	oracle := inst.check()

	path := traceFile(w.name)
	traceErr := writeTrace(rec, path)
	fmt.Printf("%s: traced run, %d spans in %s\n", w.name, rec.count(), path)
	for _, problem := range []error{p.err, oracle, traceErr} {
		if problem != nil {
			fmt.Println("FAILED:", problem)
		}
	}
	res.Correct = p.err == nil && oracle == nil && traceErr == nil
	for _, m := range perLayer {
		v, ok := p.out[m.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		fmt.Printf("%-34s %16.5f %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	return res, nil
}

// writeTrace writes the span file and checks it the way the program's own
// trace checker would.
func writeTrace(rec *recorder, path string) error {
	var buf bytes.Buffer
	if err := rec.writeChromeTrace(&buf); err != nil {
		return err
	}
	if err := obs.CheckChromeTrace(buf.Bytes()); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
