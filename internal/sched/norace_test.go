//go:build !race

package sched

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
