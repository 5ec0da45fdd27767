package kernels

import (
	"encoding/binary"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// geluSpec is GELUForwardF32's loop written out again, independently of
// the package's tail, and geluGradSpec GELUBackwardF32's.
func geluSpec(dst []float32, th []float64, src []float32) {
	for i, v := range src {
		x := float64(v)
		t := math.Tanh(0.7978845608028654 * (x + 0.044715*x*x*x))
		th[i] = t
		dst[i] = float32(0.5 * x * (1 + t))
	}
}

func geluGradSpec(grad, x []float32, th []float64) {
	for i := range grad {
		xv, t := float64(x[i]), th[i]
		dInner := 0.7978845608028654 * (1 + 3*0.044715*xv*xv)
		d := 0.5*(1+t) + 0.5*xv*(1-t*t)*dInner
		grad[i] *= float32(d)
	}
}

// sameBits64 is sameBits for the float64 tanh values.
func sameBits64(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// geluInputs returns the float32 inputs TestGELUMatchesSpecBitwise sweeps:
// every 1013th bit pattern, the specials, four inputs a split Taylor step
// moves, and the float32 neighbours of the inputs where tanh's argument
// crosses math.tanh's branch points 0.625 and 0.5·MAXLOG, on both signs.
func geluInputs() []float32 {
	var xs []float32
	for b := uint64(0); b < 1<<32; b += 1013 {
		xs = append(xs, math.Float32frombits(uint32(b)))
	}
	for _, b := range []uint32{
		0, 1 << 31, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x7f800001, 0xffa5a5a5, 0x7fbfffff, // signalling NaNs
		0x7fc00000, 0xffc00000, 0x7fc12345, 0xffffffff, // quiet NaNs
		1, 0x80000001, 0x007fffff, 0x807fffff, 0x00400000, // denormals
		0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	} {
		xs = append(xs, math.Float32frombits(b))
	}
	// the only float32 inputs in [0.5, 12), the Exp branch, whose th moves
	// when the Taylor step with 1/2 is split into a multiply and an add
	// (a dense sweep of that range): the stride misses them. With their
	// neighbours, both signs.
	for _, b := range []uint32{0x3f8060e2, 0x3fa91e99, 0x3fb01503, 0x4001b2af} {
		for _, v := range []uint32{b - 1, b, b + 1} {
			xs = append(xs, math.Float32frombits(v), -math.Float32frombits(v))
		}
	}
	arg := func(v float32) float64 {
		x := float64(v)
		return math.Abs(geluC * (x + 0.044715*x*x*x))
	}
	for _, edge := range []float64{geluK.mid[0], geluK.big[0]} {
		// the least positive float32 whose argument reaches edge: arg grows
		// with x, and positive float32 bits order like their values
		lo, hi := uint32(0), uint32(0x7f7fffff)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if arg(math.Float32frombits(mid)) >= edge {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		for d := uint32(0); d < 16; d++ {
			b := lo - 8 + d
			xs = append(xs, math.Float32frombits(b), -math.Float32frombits(b))
		}
	}
	return xs
}

// checkGELU runs both kernels over xs on the active ISA and compares y, the
// kept tanh values and the backward's gradient of grad0 with the spec's.
func checkGELU(t *testing.T, label string, xs, grad0 []float32) {
	t.Helper()
	n := len(xs)
	wantY, wantTh := make([]float32, n), make([]float64, n)
	geluSpec(wantY, wantTh, xs)
	wantG := append([]float32(nil), grad0...)
	geluGradSpec(wantG, xs, wantTh)
	y, th := make([]float32, n), make([]float64, n)
	GELUForwardF32(y, th, xs)
	g := append([]float32(nil), grad0...)
	GELUBackwardF32(g, xs, th)
	diffBits(t, label+"/y", y, wantY)
	diffBits(t, label+"/grad", g, wantG)
	for i := range th {
		if !sameBits64(th[i], wantTh[i]) {
			t.Fatalf("%s/th: element %d (x bits %#08x): got %#016x, want %#016x", label, i,
				math.Float32bits(xs[i]), math.Float64bits(th[i]), math.Float64bits(wantTh[i]))
		}
	}
}

// TestGELUMatchesSpecBitwise pins both GELU kernels to the spec on every
// ISA: y, the kept tanh values and the backward's gradient, over a sweep of
// the float32 bit patterns, the specials and the branch edges, and at every
// length 0–9 for the tail.
func TestGELUMatchesSpecBitwise(t *testing.T) {
	if mathExpFused() && !expFused {
		t.Fatal("math.Exp takes its fused path but the GELU body's probe turned the body off")
	}
	xs := geluInputs()
	grad := make([]float32, len(xs))
	fillRand(grad, 7)
	sprinkle(grad, 9)
	forEachISA(t, func(t *testing.T) {
		checkGELU(t, "sweep", xs, grad)
		for m := 0; m <= 9; m++ {
			off := len(xs) - 9 - m // the specials and edges sit at the end
			checkGELU(t, "n="+digitsOf(m), xs[off:off+m], grad[off:off+m])
		}
	})
}

// FuzzGELUVsSpec reads float32 bit patterns from the fuzzer's bytes, so any
// NaN payload, denormal or length occurs, and checks both GELU kernels
// against the spec on every ISA.
func FuzzGELUVsSpec(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 1, 0, 0x80, 0x7f, 0, 0, 0, 0x80, 0xa5, 0x96, 0x43, 0x3f, 0xff, 0xff, 0x7f, 0xff}, uint64(1))
	f.Add(make([]byte, 4*13), uint64(2))
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64) {
		xs := make([]float32, len(raw)/4)
		for i := range xs {
			xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		grad := make([]float32, len(xs))
		fillRand(grad, seed)
		sprinkle(grad, seed+1)
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
			checkGELU(t, isa, xs, grad)
		}
	})
}

// TestGELUConstants pins every geluK field to the Go expression it stands
// for, and the Exp constants to math.Exp itself: replayed with math.FMA from
// the table, math/exp_amd64.s's fused path must give math.Exp's bits where
// the CPU makes math.Exp take it.
func TestGELUConstants(t *testing.T) {
	k := geluK
	for _, c := range []struct {
		name string
		got  [4]float64
		want float64
	}{
		{"cubic", k.cubic, 0.044715}, {"c", k.c, math.Sqrt(2 / math.Pi)}, {"half", k.half, 0.5},
		{"one", k.one, 1}, {"two", k.two, 2}, {"deriv", k.deriv, 0.134145},
		{"abs", k.abs, math.Float64frombits(^uint64(0) >> 1)}, {"sign", k.sign, math.Copysign(0, -1)},
		{"big", k.big, 0.5 * 8.8029691931113054295988e+01}, {"mid", k.mid, 0.625},
		{"log2e", k.log2e, math.Log2E}, {"ln2u", k.ln2u, math.Ln2 - k.ln2l[0]}, {"sixteenth", k.sixteenth, 1.0 / 16},
		{"t8", k.t8, 1.0 / 40320}, {"t7", k.t7, 1.0 / 5040}, {"t6", k.t6, 1.0 / 720},
		{"t5", k.t5, 1.0 / 120}, {"t4", k.t4, 1.0 / 24}, {"t3", k.t3, 1.0 / 6}, {"bias", k.bias, math.Float64frombits(1023)},
		{"p0", k.p0, -9.64399179425052238628e-1}, {"p1", k.p1, -9.92877231001918586564e1}, {"p2", k.p2, -1.61468768441708447952e3},
		{"q0", k.q0, 1.12811678491632931402e2}, {"q1", k.q1, 2.23548839060100448583e3}, {"q2", k.q2, 4.84406305325125486048e3},
	} {
		for _, v := range c.got {
			if math.Float64bits(v) != math.Float64bits(c.want) {
				t.Errorf("geluK.%s = %#016x, want %#016x in every lane", c.name, math.Float64bits(v), math.Float64bits(c.want))
			}
		}
	}
	if !mathExpFused() {
		t.Skip("math.Exp may take its unfused path here")
	}
	for i := 0; i < 200000; i++ {
		x := 1.25 + (88.03-1.25)*float64(i)/200000 // 2|a| on the Exp branch
		e := math.RoundToEven(k.log2e[0] * x)
		r := math.FMA(-e, k.ln2u[0], x)
		r = math.FMA(-e, k.ln2l[0], r) * k.sixteenth[0]
		p := k.t8[0]
		for _, c := range [][4]float64{k.t7, k.t6, k.t5, k.t4, k.t3, k.half, k.one} {
			p = math.FMA(p, r, c[0])
		}
		r *= p
		for range 3 {
			r *= r + k.two[0]
		}
		r = math.FMA(r+k.two[0], r, k.one[0])
		if got := r * math.Ldexp(1, int(e)); got != math.Exp(x) {
			t.Fatalf("replayed Exp(%v) = %#016x, math.Exp %#016x", x, math.Float64bits(got), math.Float64bits(math.Exp(x)))
		}
	}
}

// mathExpFused reports whether math.Exp takes its fused path here for sure:
// the CPU has AVX and FMA and GODEBUG masks no CPU feature from math.
func mathExpFused() bool {
	return cpuHasFMA && !strings.Contains(os.Getenv("GODEBUG"), "cpu.")
}

// TestGELUUnfusedExp reruns TestGELUMatchesSpecBitwise with FMA hidden from
// math (GODEBUG=cpu.fma=off), where math.Exp rounds unfused: the body must
// step aside, not give the fused bits.
func TestGELUUnfusedExp(t *testing.T) {
	if !cpuHasFMA || os.Getenv("GODEBUG") != "" {
		t.Skip("no fused path to hide, or GODEBUG already set")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestGELUMatchesSpecBitwise$", "-test.count=1")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("with math.Exp unfused: %v\n%s", err, out)
	}
}
