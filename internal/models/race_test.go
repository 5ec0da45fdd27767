//go:build race

package models

// raceEnabled reports whether the race detector instruments this build; its
// write barriers allocate, so allocation-count assertions are meaningless.
const raceEnabled = true
