//go:build !race

package kernels

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
