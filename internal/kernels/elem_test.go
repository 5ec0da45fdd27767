package kernels

import (
	"math"
	"testing"
)

// The elementwise differential suite: every primitive in elem.go is pinned to
// an independently written scalar reference, across lengths on both sides of
// the 8-lane head/tail split, with random and special (±0, ±Inf, NaN,
// denormal) inputs, under every available micro-kernel variant.
//
// Each case operates on (dst, a, b) slices plus up to four scalar constants;
// run invokes the package primitive and ref the scalar spec. Primitives that
// mutate more than dst (the SGD updates write the velocity buffer through a)
// are covered because the harness compares all three slices afterwards.

type elemCase struct {
	name string
	run  func(dst, a, b []float32, s0, s1, s2, s3 float32)
	ref  func(dst, a, b []float32, s0, s1, s2, s3 float32)
}

var elemCases = []elemCase{
	{"AddF32",
		func(dst, a, b []float32, s0, s1, s2, s3 float32) { AddF32(dst, a) },
		func(dst, a, b []float32, s0, s1, s2, s3 float32) {
			for i := range dst {
				dst[i] += a[i]
			}
		}},
	{"MulF32",
		func(dst, a, b []float32, s0, s1, s2, s3 float32) { MulF32(dst, a) },
		func(dst, a, b []float32, s0, s1, s2, s3 float32) {
			for i := range dst {
				dst[i] *= a[i]
			}
		}},
	{"MulIntoF32",
		func(dst, a, b []float32, s0, s1, s2, s3 float32) { MulIntoF32(dst, a, b) },
		func(dst, a, b []float32, s0, s1, s2, s3 float32) {
			for i := range dst {
				dst[i] = a[i] * b[i]
			}
		}},
	{"ScaleF32",
		func(dst, a, b []float32, s0, s1, s2, s3 float32) { ScaleF32(dst, s0) },
		func(dst, a, b []float32, s0, s1, s2, s3 float32) {
			for i := range dst {
				dst[i] *= s0
			}
		}},
	{"AddScaledF32",
		func(dst, a, b []float32, s0, s1, s2, s3 float32) { AddScaledF32(dst, a, b, s0) },
		func(dst, a, b []float32, s0, s1, s2, s3 float32) {
			for i := range dst {
				dst[i] = a[i] + s0*b[i]
			}
		}},
	{"MaxZeroF32",
		func(dst, a, b []float32, s0, s1, s2, s3 float32) { MaxZeroF32(dst, a) },
		func(dst, a, b []float32, s0, s1, s2, s3 float32) {
			for i := range dst {
				if v := a[i]; v > 0 {
					dst[i] = v
				} else {
					dst[i] = 0
				}
			}
		}},
	{"MaxZeroGradF32",
		func(dst, a, b []float32, s0, s1, s2, s3 float32) { MaxZeroGradF32(dst, a) },
		func(dst, a, b []float32, s0, s1, s2, s3 float32) {
			for i := range dst {
				if !(a[i] > 0) {
					dst[i] = 0
				}
			}
		}},
	{"NormalizeF32",
		func(dst, a, b []float32, s0, s1, s2, s3 float32) { NormalizeF32(dst, a, s0, s1) },
		func(dst, a, b []float32, s0, s1, s2, s3 float32) {
			for i := range dst {
				dst[i] = (a[i] - s0) * s1
			}
		}},
	{"ScaleShiftF32",
		func(dst, a, b []float32, s0, s1, s2, s3 float32) { ScaleShiftF32(dst, a, s0, s1) },
		func(dst, a, b []float32, s0, s1, s2, s3 float32) {
			for i := range dst {
				dst[i] = s0*a[i] + s1
			}
		}},
	{"NormBackwardF32",
		func(dst, a, b []float32, s0, s1, s2, s3 float32) { NormBackwardF32(dst, a, b, s0, s1, s2, s3) },
		func(dst, a, b []float32, s0, s1, s2, s3 float32) {
			for i := range dst {
				dst[i] = s3 * (s0*a[i] - s1 - b[i]*s2)
			}
		}},
	{"SgdMomentumF32",
		func(dst, a, b []float32, s0, s1, s2, s3 float32) { SgdMomentumF32(dst, a, b, s0, s1) },
		func(dst, a, b []float32, s0, s1, s2, s3 float32) {
			for i := range dst {
				nv := s1*a[i] + b[i]
				a[i] = nv
				dst[i] -= s0 * nv
			}
		}},
	{"SgdPlainF32",
		func(dst, a, b []float32, s0, s1, s2, s3 float32) { SgdPlainF32(dst, a, s0) },
		func(dst, a, b []float32, s0, s1, s2, s3 float32) {
			for i := range dst {
				dst[i] -= s0 * a[i]
			}
		}},
}

// elemOperands builds a (dst, a, b) triple of length n plus four scalars from
// a seed, optionally salted with specials in both the slices and the scalars.
func elemOperands(n int, seed uint64, withSpecials bool) (dst, a, b []float32, s [4]float32) {
	dst = make([]float32, n)
	a = make([]float32, n)
	b = make([]float32, n)
	fillRand(dst, seed)
	fillRand(a, seed^0xa5a5a5a5)
	fillRand(b, seed^0x5a5a5a5a)
	sc := make([]float32, 4)
	fillRand(sc, seed^0x1234567)
	if withSpecials {
		sprinkle(dst, seed+11)
		sprinkle(a, seed+13)
		sprinkle(b, seed+17)
		st := seed + 19
		sc[splitmix64(&st)%4] = specials[splitmix64(&st)%uint64(len(specials))]
	}
	copy(s[:], sc)
	return
}

func runElemCase(t *testing.T, c elemCase, n int, seed uint64, withSpecials bool, label string) {
	t.Helper()
	d1, a1, b1, s := elemOperands(n, seed, withSpecials)
	d2 := append([]float32(nil), d1...)
	a2 := append([]float32(nil), a1...)
	b2 := append([]float32(nil), b1...)
	c.run(d1, a1, b1, s[0], s[1], s[2], s[3])
	c.ref(d2, a2, b2, s[0], s[1], s[2], s[3])
	diffBits(t, label+"/dst", d1, d2)
	diffBits(t, label+"/a", a1, a2)
	diffBits(t, label+"/b", b1, b2)
}

// TestElemPrimitivesVsScalar sweeps every primitive across lengths straddling
// the vector head/tail boundary, with and without special values, under every
// ISA variant.
func TestElemPrimitivesVsScalar(t *testing.T) {
	lengths := []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100}
	forEachISA(t, func(t *testing.T) {
		for _, c := range elemCases {
			for _, n := range lengths {
				for _, withSpecials := range []bool{false, true} {
					seed := uint64(n)*2654435761 + 1
					if withSpecials {
						seed ^= 0xdead
					}
					runElemCase(t, c, n, seed, withSpecials, c.name+"/n="+digitsOf(n))
				}
			}
		}
	})
}

// TestScaleShiftAliased pins the documented dst==src aliasing of
// ScaleShiftF32 (the BatchNorm eval path rewrites its buffer in place).
func TestScaleShiftAliased(t *testing.T) {
	forEachISA(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 7, 8, 9, 33, 100} {
			x := make([]float32, n)
			fillRand(x, uint64(n)+7)
			sprinkle(x, uint64(n)+9)
			want := make([]float32, n)
			g, b := float32(1.5), float32(-0.25)
			for i := range x {
				want[i] = g*x[i] + b
			}
			ScaleShiftF32(x, x, g, b)
			diffBits(t, "ScaleShiftF32 aliased/n="+digitsOf(n), x, want)
		}
	})
}

// FuzzElemVsScalar drives a fuzz-chosen primitive at a fuzz-chosen length
// with raw-bit scalar constants (so NaN/Inf/denormal constants occur
// naturally) and checks every ISA variant against the scalar reference.
func FuzzElemVsScalar(f *testing.F) {
	f.Add(uint8(0), uint16(8), uint64(1), false, uint32(0x3f800000), uint32(0), uint32(0), uint32(0))
	f.Add(uint8(6), uint16(17), uint64(2), true, uint32(0x7fc00000), uint32(0xff800000), uint32(1), uint32(0x80000000))
	f.Add(uint8(11), uint16(100), uint64(3), true, uint32(0x3d000000), uint32(0x3f600000), uint32(0), uint32(0))
	f.Fuzz(func(t *testing.T, opIdx uint8, n16 uint16, seed uint64, withSpecials bool, s0b, s1b, s2b, s3b uint32) {
		c := elemCases[int(opIdx)%len(elemCases)]
		n := int(n16) % 512
		s0 := math.Float32frombits(s0b)
		s1 := math.Float32frombits(s1b)
		s2 := math.Float32frombits(s2b)
		s3 := math.Float32frombits(s3b)

		d0, a0, b0, _ := elemOperands(n, seed, withSpecials)
		want := append([]float32(nil), d0...)
		wantA := append([]float32(nil), a0...)
		wantB := append([]float32(nil), b0...)
		c.ref(want, wantA, wantB, s0, s1, s2, s3)

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
			d := append([]float32(nil), d0...)
			a := append([]float32(nil), a0...)
			b := append([]float32(nil), b0...)
			c.run(d, a, b, s0, s1, s2, s3)
			diffBits(t, c.name+"["+isa+"]/dst", d, want)
			diffBits(t, c.name+"["+isa+"]/a", a, wantA)
			diffBits(t, c.name+"["+isa+"]/b", b, wantB)
		}
	})
}
