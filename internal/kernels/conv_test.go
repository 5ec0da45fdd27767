package kernels

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

func conv2dRef64(src, weight, bias []float32, d ConvDims) []float64 {
	oh, ow := d.OutH(), d.OutW()
	out := make([]float64, d.Batch*d.COut*oh*ow)
	for b := 0; b < d.Batch; b++ {
		for co := 0; co < d.COut; co++ {
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					var s float64
					if bias != nil {
						s = float64(bias[co])
					}
					for ci := 0; ci < d.CIn; ci++ {
						for kh := 0; kh < d.KH; kh++ {
							for kw := 0; kw < d.KW; kw++ {
								hi := y*d.StrideH + kh - d.PadH
								wi := x*d.StrideW + kw - d.PadW
								if hi < 0 || hi >= d.H || wi < 0 || wi >= d.W {
									continue
								}
								sv := src[((b*d.CIn+ci)*d.H+hi)*d.W+wi]
								wv := weight[((co*d.CIn+ci)*d.KH+kh)*d.KW+kw]
								s += float64(sv) * float64(wv)
							}
						}
					}
					out[((b*d.COut+co)*oh+y)*ow+x] = s
				}
			}
		}
	}
	return out
}

func testDims() ConvDims {
	return ConvDims{Batch: 2, CIn: 3, H: 8, W: 8, COut: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
}

func TestConv2DAgainstReference(t *testing.T) {
	s := rng.New(20)
	d := testDims()
	src := randSlice(s, d.Batch*d.CIn*d.H*d.W)
	weight := randSlice(s, d.COut*d.ColRows())
	bias := randSlice(s, d.COut)
	ref := conv2dRef64(src, weight, bias, d)
	dst := make([]float32, len(ref))
	for _, kc := range []int{0, 4, 9, 27} {
		Conv2D(dst, src, weight, bias, d, kc)
		assertClose(t, dst, ref, 1e-3, "Conv2D")
	}
	// nil bias path
	refNB := conv2dRef64(src, weight, nil, d)
	Conv2D(dst, src, weight, nil, d, 0)
	assertClose(t, dst, refNB, 1e-3, "Conv2D no bias")
}

func TestConv2DStridePad(t *testing.T) {
	s := rng.New(21)
	d := ConvDims{Batch: 1, CIn: 2, H: 9, W: 7, COut: 3, KH: 3, KW: 2, StrideH: 2, StrideW: 2, PadH: 0, PadW: 1}
	src := randSlice(s, d.Batch*d.CIn*d.H*d.W)
	weight := randSlice(s, d.COut*d.ColRows())
	ref := conv2dRef64(src, weight, nil, d)
	dst := make([]float32, len(ref))
	Conv2D(dst, src, weight, nil, d, 5)
	assertClose(t, dst, ref, 1e-3, "Conv2D stride/pad")
}

func TestConvKCChangesBits(t *testing.T) {
	s := rng.New(22)
	d := ConvDims{Batch: 1, CIn: 16, H: 8, W: 8, COut: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	src := randSlice(s, d.Batch*d.CIn*d.H*d.W)
	weight := randSlice(s, d.COut*d.ColRows())
	d1 := make([]float32, d.Batch*d.COut*d.OutH()*d.OutW())
	d2 := make([]float32, len(d1))
	Conv2D(d1, src, weight, nil, d, 16)
	Conv2D(d2, src, weight, nil, d, 48)
	same := true
	for i := range d1 {
		if math.Float32bits(d1[i]) != math.Float32bits(d2[i]) {
			same = false
			break
		}
	}
	if same {
		t.Skip("conv kc variants agreed bitwise (rare)")
	}
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), c> must equal <x, col2ImSpec(c)> — the defining property of
	// an adjoint pair, which is what the dX spec's correctness rests on.
	s := rng.New(23)
	d := ConvDims{Batch: 1, CIn: 2, H: 6, W: 5, COut: 1, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 1}
	x := randSlice(s, d.CIn*d.H*d.W)
	c := randSlice(s, d.ColRows()*d.ColCols())
	ix := make([]float32, d.ColRows()*d.ColCols())
	Im2Col(ix, x, d)
	cc := make([]float32, d.CIn*d.H*d.W)
	col2ImSpec(cc, c, d)
	var lhs, rhs float64
	for i := range ix {
		lhs += float64(ix[i]) * float64(c[i])
	}
	for i := range x {
		rhs += float64(x[i]) * float64(cc[i])
	}
	if math.Abs(lhs-rhs) > 1e-2*(math.Abs(lhs)+1) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

// TestConv2DBackwardNumerical checks all three gradients against central
// finite differences of a scalar loss L = sum(conv(x, w) * g).
func TestConv2DBackwardNumerical(t *testing.T) {
	s := rng.New(24)
	d := ConvDims{Batch: 1, CIn: 2, H: 5, W: 5, COut: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	nIn := d.Batch * d.CIn * d.H * d.W
	nW := d.COut * d.ColRows()
	nOut := d.Batch * d.COut * d.OutH() * d.OutW()
	src := make([]float32, nIn)
	weight := make([]float32, nW)
	g := make([]float32, nOut)
	for i := range src {
		src[i] = s.NormFloat32()
	}
	for i := range weight {
		weight[i] = s.NormFloat32()
	}
	for i := range g {
		g[i] = s.NormFloat32()
	}

	loss := func(src, weight []float32) float64 {
		out := make([]float32, nOut)
		Conv2D(out, src, weight, nil, d, 0)
		var l float64
		for i := range out {
			l += float64(out[i]) * float64(g[i])
		}
		return l
	}

	gradSrc := make([]float32, nIn)
	gradW := make([]float32, nW)
	gradB := make([]float32, d.COut)
	Conv2DBackward(gradSrc, gradW, gradB, src, weight, g, d, 0)

	const eps = 1e-2
	checkGrad := func(buf []float32, grad []float32, name string, idxs []int) {
		for _, i := range idxs {
			orig := buf[i]
			buf[i] = orig + eps
			lp := loss(src, weight)
			buf[i] = orig - eps
			lm := loss(src, weight)
			buf[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(grad[i])) > 2e-2*(math.Abs(num)+1) {
				t.Fatalf("%s grad[%d] = %v, numerical %v", name, i, grad[i], num)
			}
		}
	}
	checkGrad(src, gradSrc, "src", []int{0, 7, nIn / 2, nIn - 1})
	checkGrad(weight, gradW, "weight", []int{0, 5, nW / 2, nW - 1})

	// bias gradient: dL/db[co] = sum of g over spatial positions of channel co
	for co := 0; co < d.COut; co++ {
		var ref float64
		sp := d.OutH() * d.OutW()
		for j := 0; j < sp; j++ {
			ref += float64(g[co*sp+j])
		}
		if math.Abs(ref-float64(gradB[co])) > 1e-3*(math.Abs(ref)+1) {
			t.Fatalf("bias grad[%d] = %v, ref %v", co, gradB[co], ref)
		}
	}
}

func TestConv2DBackwardNilOutputs(t *testing.T) {
	s := rng.New(25)
	d := testDims()
	src := randSlice(s, d.Batch*d.CIn*d.H*d.W)
	weight := randSlice(s, d.COut*d.ColRows())
	g := randSlice(s, d.Batch*d.COut*d.OutH()*d.OutW())
	// must not panic with nil gradient buffers
	Conv2DBackward(nil, nil, nil, src, weight, g, d, 0)
	gw := make([]float32, len(weight))
	Conv2DBackward(nil, gw, nil, src, weight, g, d, 0)
}

// TestConvDimsValidatePanics: every entry point rejects geometry that is not
// a convolution — a kernel larger than the padded image (even where a stride
// makes the truncated OutW count one window), a negative padding (which would
// compute a silently cropped convolution and index outside the bordered
// image), and any non-positive size or stride.
func TestConvDimsValidatePanics(t *testing.T) {
	ok := ConvDims{Batch: 1, CIn: 1, H: 6, W: 6, COut: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	ok.validate()
	for name, mut := range map[string]func(d *ConvDims){
		"kernel larger than image":                      func(d *ConvDims) { d.KH, d.KW, d.PadH, d.PadW = 7, 7, 0, 0 },
		"kernel past the padding, hidden by the stride": func(d *ConvDims) { d.W, d.KW, d.StrideW = 2, 5, 3 },
		"negative PadH":                                 func(d *ConvDims) { d.PadH = -1 },
		"negative PadW":                                 func(d *ConvDims) { d.PadW = -1 },
		"zero KH":                                       func(d *ConvDims) { d.KH = 0 },
		"negative KW":                                   func(d *ConvDims) { d.KW = -1 },
		"zero H":                                        func(d *ConvDims) { d.H = 0 },
		"negative W":                                    func(d *ConvDims) { d.W = -2 },
		"zero Batch":                                    func(d *ConvDims) { d.Batch = 0 },
		"zero CIn":                                      func(d *ConvDims) { d.CIn = 0 },
		"zero COut":                                     func(d *ConvDims) { d.COut = 0 },
		"zero StrideH":                                  func(d *ConvDims) { d.StrideH = 0 },
		"negative StrideW":                              func(d *ConvDims) { d.StrideW = -1 },
	} {
		d := ok
		mut(&d)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: %+v accepted", name, d)
				}
			}()
			d.validate()
		}()
	}
}

// convSpec computes the three conv paths from their executable
// specification: per image, the unfolded Im2Col matrix against the reference
// GEMM loops for the output and the weight gradient, sumBlockedSpec for the bias
// gradient, and the scalar scatter of the reference Wᵀ·dOut for the input
// gradient. The weight and bias gradients start from +0 and accumulate in
// batch order.
func convSpec(src, weight, bias, gradOut []float32, d ConvDims, kc int) (out, gradSrc, gradW, gradB []float32) {
	kdim, spatial := d.ColRows(), d.ColCols()
	imgIn, imgOut := d.CIn*d.H*d.W, d.COut*spatial
	cols, dcols := make([]float32, kdim*spatial), make([]float32, kdim*spatial)
	wpart := make([]float32, d.COut*kdim)
	out, gradSrc = make([]float32, d.Batch*imgOut), make([]float32, d.Batch*imgIn)
	gradW, gradB = make([]float32, d.COut*kdim), make([]float32, d.COut)
	for b := 0; b < d.Batch; b++ {
		o, dout := out[b*imgOut:(b+1)*imgOut], gradOut[b*imgOut:(b+1)*imgOut]
		Im2Col(cols, src[b*imgIn:(b+1)*imgIn], d)
		matMulRef(o, weight, cols, d.COut, kdim, spatial, kc)
		if bias != nil {
			addBias(o, bias, d.COut, spatial)
		}
		matMulABTRef(wpart, dout, cols, d.COut, spatial, kdim, kc)
		for i, v := range wpart {
			gradW[i] += v
		}
		for co := range gradB {
			gradB[co] += sumBlockedSpec(dout[co*spatial:(co+1)*spatial], kc)
		}
		matMulATBRef(dcols, weight, dout, kdim, d.COut, spatial, kc)
		col2ImSpec(gradSrc[b*imgIn:(b+1)*imgIn], dcols, d)
	}
	return out, gradSrc, gradW, gradB
}

// col2ImSpec is the scatter Conv2DBackward's dX must reproduce bit for bit:
// the adjoint of Im2Col's walk, each in-image window position adding its cols
// entry onto +0 in the order of the cols matrix.
func col2ImSpec(dst, cols []float32, d ConvDims) {
	for i := range dst {
		dst[i] = 0
	}
	idx := 0
	for c := 0; c < d.CIn; c++ {
		for kh := 0; kh < d.KH; kh++ {
			for kw := 0; kw < d.KW; kw++ {
				for y := 0; y < d.OutH(); y++ {
					for x := 0; x < d.OutW(); x++ {
						hi, wi := y*d.StrideH+kh-d.PadH, x*d.StrideW+kw-d.PadW
						if hi >= 0 && hi < d.H && wi >= 0 && wi < d.W {
							dst[(c*d.H+hi)*d.W+wi] += cols[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// convOperands draws the operands of one conv from seed, with a few
// specials (NaN, ±Inf, −0, denormals) sprinkled into each when asked: sparse
// enough that most outputs stay finite, so both the finite bits and the
// propagation of the specials are compared.
func convOperands(d ConvDims, seed uint64, specials bool) (src, weight, bias, gradOut []float32) {
	s := rng.New(seed)
	src = randSlice(s, d.Batch*d.CIn*d.H*d.W)
	weight = randSlice(s, d.COut*d.ColRows())
	bias = randSlice(s, d.COut)
	gradOut = randSlice(s, d.Batch*d.COut*d.ColCols())
	if specials {
		for i, xs := range [][]float32{src, weight, bias, gradOut} {
			sprinkleN(xs, seed+uint64(i), 2)
		}
	}
	return src, weight, bias, gradOut
}

// checkConvVsSpec runs Conv2D and Conv2DBackward into buffers
// holding a sentinel and compares every output with convSpec bit for bit.
func checkConvVsSpec(t *testing.T, label string, d ConvDims, kc int, src, weight, bias, gradOut []float32) {
	t.Helper()
	wantOut, wantSrc, wantW, wantB := convSpec(src, weight, bias, gradOut, d, kc)
	junk := func(n int) []float32 {
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = -12345.678
		}
		return xs
	}
	out, gradSrc, gradW, gradB := junk(len(wantOut)), junk(len(wantSrc)), junk(len(wantW)), junk(len(wantB))
	Conv2D(out, src, weight, bias, d, kc)
	Conv2DBackward(gradSrc, gradW, gradB, src, weight, gradOut, d, kc)
	diffBits(t, label+"/out", out, wantOut)
	diffBits(t, label+"/dX", gradSrc, wantSrc)
	diffBits(t, label+"/dW", gradW, wantW)
	diffBits(t, label+"/db", gradB, wantB)
}

// TestConvMatchesSpecBitwise differentially tests the gathering conv paths
// against their executable specification under every micro-kernel variant:
// kc blocks including the normalization cases, every stride and padding up to
// 3 and 2, kernels wider than tall and taller than the padding, odd H≠W, and
// output-channel counts on both sides of every register-tile edge. CIn 9 (on
// one kernel, for runtime) gives dX a full channel strip plus a partial one
// on both the 8-wide and the 4-wide tile.
func TestConvMatchesSpecBitwise(t *testing.T) {
	kernels := []struct {
		kh, kw int
		cins   []int
	}{{1, 1, []int{2}}, {3, 2, []int{2, 9}}, {5, 5, []int{2}}}
	forEachISA(t, func(t *testing.T) {
		seed := uint64(0)
		for _, k := range kernels {
			for _, cin := range k.cins {
				for sh := 1; sh <= 3; sh++ {
					for sw := 1; sw <= 3; sw++ {
						for ph := 0; ph <= 2; ph++ {
							for pw := 0; pw <= 2; pw++ {
								for _, cout := range []int{1, 5, 8, 9, 17} {
									d := ConvDims{Batch: 2, CIn: cin, H: 7, W: 9, COut: cout, KH: k.kh, KW: k.kw,
										StrideH: sh, StrideW: sw, PadH: ph, PadW: pw}
									seed++
									src, weight, bias, gradOut := convOperands(d, seed, seed%2 == 0)
									for _, kc := range []int{0, 1, 3, 8, 32, 64, 100} {
										label := fmt.Sprintf("%+v/kc%d", d, kc)
										checkConvVsSpec(t, label, d, kc, src, weight, bias, gradOut)
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// zooConvShapes are the conv geometries the model zoo trains, at the
// benchmark's four-image batch: resnet50's CIn-3 stem (a partial channel
// strip in dX), its CIn-8 block conv (kdim 72: nine full 8-wide strips),
// shufflenetv2's stride-2 8→16 conv, vgg19's bias-carrying 8→16 conv and
// yolov3's 16→16 conv, both on the pooled 4×4 map. COut 16 is two kc blocks
// under kc 8, which dX's tile folds before adding in place; under kc ≥ 16 it
// is one block.
var zooConvShapes = []struct {
	name string
	d    ConvDims
}{
	{"resnet50-stem", ConvDims{Batch: 4, CIn: 3, H: 8, W: 8, COut: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
	{"resnet50-block", ConvDims{Batch: 4, CIn: 8, H: 8, W: 8, COut: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
	{"shufflenet-s2", ConvDims{Batch: 4, CIn: 8, H: 8, W: 8, COut: 16, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
	{"vgg19-bias", ConvDims{Batch: 4, CIn: 8, H: 4, W: 4, COut: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
	{"yolov3-16", ConvDims{Batch: 4, CIn: 16, H: 4, W: 4, COut: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
}

// TestConvZooShapesBitwise checks the production conv shapes against the
// spec at every kc the device models use, under every ISA, with and without
// specials, instead of only through core's end-to-end hashes.
func TestConvZooShapesBitwise(t *testing.T) {
	forEachISA(t, func(t *testing.T) {
		for i, zs := range zooConvShapes {
			for _, specials := range []bool{false, true} {
				src, weight, bias, gradOut := convOperands(zs.d, uint64(1000+2*i), specials)
				for _, kc := range []int{8, 16, 32, 64} {
					label := fmt.Sprintf("%s/specials=%v/kc%d", zs.name, specials, kc)
					checkConvVsSpec(t, label, zs.d, kc, src, weight, bias, gradOut)
				}
			}
		}
	})
}

// TestConvAllocFree: after warm-up, the conv kernels draw every buffer —
// the bordered image, the packed weights and dOut, the guarded dOut copy and
// the offset and tap tables — from the arena, so a call allocates nothing:
// at resnet50's block geometry, at its stem (a partial channel strip), at
// shufflenetv2's stride-2 conv (a zero-dilated dOut copy) and at a 5×5
// kernel (25 dX tap panels).
func TestConvAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful uninstrumented")
	}
	for _, d := range []ConvDims{
		zooConvShapes[0].d, // resnet50-stem
		zooConvShapes[1].d, // resnet50-block
		zooConvShapes[2].d, // shufflenet-s2
		{Batch: 2, CIn: 4, H: 8, W: 8, COut: 8, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
	} {
		src, weight, _, gradOut := convOperands(d, 7, false)
		out, gradSrc := make([]float32, len(gradOut)), make([]float32, len(src))
		gradW, gradB := make([]float32, len(weight)), make([]float32, d.COut)
		forEachISA(t, func(t *testing.T) {
			fwd := testing.AllocsPerRun(10, func() { Conv2D(out, src, weight, nil, d, 8) })
			bwd := testing.AllocsPerRun(10, func() { Conv2DBackward(gradSrc, gradW, gradB, src, weight, gradOut, d, 8) })
			if fwd != 0 || bwd != 0 {
				t.Fatalf("%+v: allocs per call: Conv2D %v, Conv2DBackward %v, want 0", d, fwd, bwd)
			}
		})
	}
}

// TestConvPlanReuseBitwise drives one ConvPlan the way a layer's plan is
// driven: across calls whose batch, geometry, stride, padding and kc change,
// with a skipped dX or dW, across an ISA switch (a dX plan laid out for the
// other tile shape), and with a backward handed a src other than its
// forward's, which the plan must border again. Every call must equal a fresh
// Conv2D/Conv2DBackward and the im2col spec bit for bit.
func TestConvPlanReuseBitwise(t *testing.T) {
	block := zooConvShapes[1].d // resnet50-block, batch 4
	half := block
	half.Batch = 2
	stem := zooConvShapes[0].d
	stem.PadH, stem.PadW = 0, 2
	steps := []struct {
		d                 ConvDims
		kc                int
		noDX, noDW        bool
		otherSrc, swapISA bool
	}{
		{d: block, kc: 8},
		{d: block, kc: 16},
		{d: block, kc: 8, otherSrc: true},
		{d: block, kc: 8, noDX: true},
		{d: half, kc: 8},
		{d: zooConvShapes[2].d, kc: 8, noDW: true}, // shufflenet-s2
		{d: zooConvShapes[2].d, kc: 32, swapISA: true},
		{d: stem, kc: 0, otherSrc: true},
		{d: block, kc: 8, swapISA: true},
		{d: block, kc: 64},
	}
	forEachISA(t, func(t *testing.T) {
		var p ConvPlan
		for i, st := range steps {
			if st.swapISA {
				for _, isa := range AvailableISAs() {
					if isa != ActiveISA() {
						if err := SetISA(isa); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
			}
			d, kc := st.d, st.kc
			label := fmt.Sprintf("step %d (%s, %+v, kc %d)", i, ActiveISA(), d, kc)
			src, weight, bias, gradOut := convOperands(d, uint64(3000+i), i%2 == 1)
			bsrc := src
			if st.otherSrc {
				bsrc, _, _, _ = convOperands(d, uint64(4000+i), false)
			}
			wantOut, _, _, _ := convSpec(src, weight, bias, gradOut, d, kc)
			_, wantSrc, wantW, wantB := convSpec(bsrc, weight, bias, gradOut, d, kc)
			out, freshOut := make([]float32, len(wantOut)), make([]float32, len(wantOut))
			p.Forward(out, src, weight, bias, d, kc)
			Conv2D(freshOut, src, weight, bias, d, kc)
			diffBits(t, label+"/out", out, wantOut)
			diffBits(t, label+"/out vs Conv2D", out, freshOut)
			var gradSrc, gradW, freshSrc, freshW []float32
			if !st.noDX {
				gradSrc, freshSrc = make([]float32, len(wantSrc)), make([]float32, len(wantSrc))
			}
			if !st.noDW {
				gradW, freshW = make([]float32, len(wantW)), make([]float32, len(wantW))
			}
			gradB, freshB := make([]float32, len(wantB)), make([]float32, len(wantB))
			p.Backward(gradSrc, gradW, gradB, bsrc, weight, gradOut, d, kc)
			Conv2DBackward(freshSrc, freshW, freshB, bsrc, weight, gradOut, d, kc)
			if !st.noDX {
				diffBits(t, label+"/dX", gradSrc, wantSrc)
				diffBits(t, label+"/dX vs Conv2DBackward", gradSrc, freshSrc)
			}
			if !st.noDW {
				diffBits(t, label+"/dW", gradW, wantW)
				diffBits(t, label+"/dW vs Conv2DBackward", gradW, freshW)
			}
			diffBits(t, label+"/db", gradB, wantB)
			diffBits(t, label+"/db vs Conv2DBackward", gradB, freshB)
		}
	})
}

// TestConvDXMasksOffImageTaps puts +Inf, −Inf and NaN into every weight of
// one edge tap — kh or kw at 0 or at KH−1/KW−1 — with finite dOut, at
// resnet50's block and stem and shufflenetv2's stride-2 conv. dX must be
// convSpec's bit for bit, and finite wherever no window uses that tap: the
// dX tile masks the lanes whose dOut position is off the image after the
// tap's partial, so a special weight never meets a padding zero.
func TestConvDXMasksOffImageTaps(t *testing.T) {
	forEachISA(t, func(t *testing.T) {
		for i, zs := range zooConvShapes[:3] {
			d := zs.d
			src, weight, bias, gradOut := convOperands(d, uint64(2000+i), false)
			for kh := 0; kh < d.KH; kh++ {
				for kw := 0; kw < d.KW; kw++ {
					if kh != 0 && kh != d.KH-1 && kw != 0 && kw != d.KW-1 {
						continue
					}
					for _, v := range specials[:3] {
						w := append([]float32(nil), weight...)
						for co := 0; co < d.COut; co++ {
							for ci := 0; ci < d.CIn; ci++ {
								w[((co*d.CIn+ci)*d.KH+kh)*d.KW+kw] = v
							}
						}
						label := fmt.Sprintf("%s/tap(%d,%d)=%v", zs.name, kh, kw, v)
						_, want, _, _ := convSpec(src, w, bias, gradOut, d, 8)
						got := make([]float32, len(want))
						Conv2DBackward(got, nil, nil, src, w, gradOut, d, 8)
						diffBits(t, label, got, want)
						for j, g := range got {
							h, x := j/d.W%d.H, j%d.W
							uses := onGrid(h+d.PadH-kh, d.StrideH, d.OutH()) && onGrid(x+d.PadW-kw, d.StrideW, d.OutW())
							if !uses && (math.IsNaN(float64(g)) || math.IsInf(float64(g), 0)) {
								t.Fatalf("%s: dX element %d (row %d, col %d) is %v, but no window uses the tap", label, j, h, x, g)
							}
						}
					}
				}
			}
		}
	})
}

// FuzzConvVsSpec is TestConvMatchesSpecBitwise over random geometry, kc and
// operands, under every available micro-kernel variant.
func FuzzConvVsSpec(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(8), uint8(8), uint8(8), uint8(0x22), uint8(0x00), uint8(0x11), int16(8), uint64(1), false)
	f.Add(uint8(1), uint8(2), uint8(17), uint8(9), uint8(7), uint8(0x14), uint8(0x12), uint8(0x20), int16(3), uint64(2), true)
	f.Add(uint8(3), uint8(1), uint8(1), uint8(5), uint8(11), uint8(0x00), uint8(0x21), uint8(0x22), int16(0), uint64(3), true)
	f.Fuzz(func(t *testing.T, b, ci, co, h, w, k, s, p uint8, kc16 int16, seed uint64, specials bool) {
		d := ConvDims{Batch: 1 + int(b%3), CIn: 1 + int(ci%12), H: 1 + int(h%12), W: 1 + int(w%12), COut: 1 + int(co%20),
			KH: 1 + int(k&15)%5, KW: 1 + int(k>>4)%5, StrideH: 1 + int(s&15)%3, StrideW: 1 + int(s>>4)%3,
			PadH: int(p&15) % 3, PadW: int(p>>4) % 3}
		if d.KH > d.H+2*d.PadH || d.KW > d.W+2*d.PadW {
			return
		}
		src, weight, bias, gradOut := convOperands(d, seed, specials)
		prev := ActiveISA()
		defer func() {
			if err := SetISA(prev); err != nil {
				t.Fatal(err)
			}
		}()
		for _, isa := range AvailableISAs() {
			if err := SetISA(isa); err != nil {
				t.Fatal(err)
			}
			checkConvVsSpec(t, fmt.Sprintf("%s/%+v/kc%d", isa, d, kc16), d, int(kc16), src, weight, bias, gradOut)
		}
	})
}
