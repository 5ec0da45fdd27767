package kernels

import (
	"runtime"
	"strings"
	"testing"
)

// forEachISA runs fn once per available micro-kernel variant (AVX2 where the
// CPU has it, generic), restoring the original selection afterwards.
// The bitwise contract demands that every variant produce identical bits, so
// the differential suites run under all of them.
func forEachISA(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	prev := ActiveISA()
	defer func() {
		if err := SetISA(prev); err != nil {
			t.Fatalf("restoring ISA %q: %v", prev, err)
		}
	}()
	for _, isa := range AvailableISAs() {
		t.Run(isa, func(t *testing.T) {
			if err := SetISA(isa); err != nil {
				t.Fatal(err)
			}
			fn(t)
		})
	}
}

// TestCPUFeatureDetectionSanity pins the invariants of the one-time CPUID
// probe and the runtime ISA switch.
func TestCPUFeatureDetectionSanity(t *testing.T) {
	avail := AvailableISAs()
	if len(avail) == 0 {
		t.Fatal("no micro-kernel variants available")
	}
	hasGeneric := false
	for _, isa := range avail {
		if isa == ISAGeneric {
			hasGeneric = true
		}
	}
	if !hasGeneric {
		t.Fatalf("generic fallback missing from %v", avail)
	}
	active := ActiveISA()
	activeListed := false
	for _, isa := range avail {
		if isa == active {
			activeListed = true
		}
	}
	if !activeListed {
		t.Fatalf("active ISA %q not in available set %v", active, avail)
	}
	features := CPUFeatures()
	hasAVX2Feature := false
	for _, f := range features {
		if f == "avx2" {
			hasAVX2Feature = true
		}
	}
	for _, isa := range avail {
		if isa == ISAAVX2 && !hasAVX2Feature {
			t.Fatalf("avx2 kernel offered but feature list %v lacks avx2", features)
		}
	}
	if active == ISAAVX2 && !hasAVX2Feature {
		t.Fatalf("avx2 active but feature list %v lacks avx2", features)
	}
	for _, name := range []string{"no-such-isa", "sse2"} {
		if err := SetISA(name); err == nil {
			t.Fatalf("SetISA accepted %q", name)
		}
		if got := ActiveISA(); got != active {
			t.Fatalf("failed SetISA(%q) changed the active variant: %q -> %q", name, active, got)
		}
	}
}

// TestTwoVariantsOnAMD64: there is one vector tier. An amd64 CPU offers the
// AVX2 kernel with the pure-Go spec behind it, or the spec alone.
func TestTwoVariantsOnAMD64(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("off amd64 the generic variant is the only one")
	}
	got := strings.Join(AvailableISAs(), " ")
	if got != "avx2 generic" && got != "generic" {
		t.Fatalf("AvailableISAs() = [%s], want [avx2 generic] or [generic]", got)
	}
}

// TestGemmOddShapesEdgeTiles is the regression table for the wider micro-tile:
// every m, n combination around the 8-wide tile boundaries (full tiles, one
// past, one short), crossed with kc < k — several blocks folded inside one
// tile call, an edge tile's total stored through the scratch tile — and
// kc >= k (one block). Guards the zeroFill/remainder handling audit of the
// 8×8 kernel.
func TestGemmOddShapesEdgeTiles(t *testing.T) {
	dims := []int{1, 7, 8, 9, 15, 16, 17, 25}
	ks := []int{3, 8, 17}
	kcs := []int{2, 0} // 2 < every k here (add path); 0 normalizes to k (store path)
	forEachISA(t, func(t *testing.T) {
		for _, impl := range gemmImpls {
			for _, m := range dims {
				for _, n := range dims {
					for _, k := range ks {
						a := make([]float32, impl.aLen(m, k, n))
						b := make([]float32, impl.bLen(m, k, n))
						fillRand(a, uint64(m*131+k*17+n))
						fillRand(b, uint64(n*137+k*19+m))
						sprinkle(a, uint64(m+n+k))
						for _, kc := range kcs {
							runDifferential(t, impl, m, k, n, kc, a, b,
								impl.name+"/edge"+shapeLabel(m, k, n, kc))
						}
					}
				}
			}
		}
	})
}
