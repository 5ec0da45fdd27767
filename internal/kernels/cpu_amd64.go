//go:build amd64

package kernels

// One-time CPUID probe backing the micro-kernel ISA dispatch. Detection runs
// once at package init; the result never changes for the life of the process,
// so dispatch is a single pointer load on the hot path.

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// detectAVX2 reports whether AVX2 is usable: the CPU must advertise it
// (CPUID.7.0:EBX bit 5), AVX and OSXSAVE must be present (CPUID.1:ECX bits 28
// and 27), and the OS must have enabled XMM+YMM state saving (XCR0 bits 1-2).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// cpuHasAVX2 is the hardware capability, independent of any forced ISA.
var cpuHasAVX2 = detectAVX2()

// cpuHasFMA adds FMA (CPUID.1:ECX bit 12): with AVX it is math's useFMA.
var cpuHasFMA = cpuHasAVX2 && func() bool { _, _, ecx1, _ := cpuid(1, 0); return ecx1&(1<<12) != 0 }()

// cpuFeatures lists the detected ISA capabilities above the amd64 baseline
// (SSE2 is unconditional), for observability and -version provenance.
func cpuFeatures() []string {
	fs := []string{"sse2"}
	if cpuHasAVX2 {
		fs = append(fs, "avx2")
	}
	if cpuHasFMA {
		fs = append(fs, "fma")
	}
	return fs
}
