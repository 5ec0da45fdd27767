//go:build !race

package data

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
