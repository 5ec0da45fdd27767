//go:build !amd64

package kernels

// Off amd64 the pure-Go micro-kernel is the only variant; the forced-ISA
// environment switch is accepted but changes nothing.

var mkVariants = []*mkDesc{mkGenericDesc}

func cpuFeatures() []string { return nil }

func init() { curMK.Store(mkGenericDesc) }
