//go:build race

package kernels

// raceEnabled reports whether the race detector instruments this build; its
// instrumentation allocates and sync.Pool drops items at random under it, so
// allocation-count assertions are meaningless.
const raceEnabled = true
