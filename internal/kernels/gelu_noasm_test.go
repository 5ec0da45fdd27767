//go:build !amd64

package kernels

// No GELU body runs off amd64, and math.Exp has no fused path to replay.
const cpuHasFMA, expFused = false, false
