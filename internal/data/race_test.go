//go:build race

package data

// raceEnabled reports whether the race detector instruments this build; its
// instrumentation allocates, so allocation-count assertions are meaningless.
const raceEnabled = true
