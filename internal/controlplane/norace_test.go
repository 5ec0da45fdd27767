//go:build !race

package controlplane

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
