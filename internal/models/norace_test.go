//go:build !race

package models

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
