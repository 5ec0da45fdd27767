//go:build !race

package dist

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
