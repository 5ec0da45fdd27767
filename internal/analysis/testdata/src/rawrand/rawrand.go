// Package rawrand is the detlint rawrand fixture: every use of math/rand
// outside internal/rng breaks the replayable-stream discipline.
package rawrand

import (
	"math/rand" // want "import of math/rand outside internal/rng"
	"time"
)

func globalDraw() int {
	return rand.Intn(10) // want "process-global RNG state"
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "process-global RNG state"
}

func wallClockSeeded() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "seeded from the wall clock" "seeded from the wall clock"
}

func locallySeeded() *rand.Rand {
	// not global state and not wall-clock seeded, but still flagged via the
	// import diagnostic above: it bypasses internal/rng's streams
	return rand.New(rand.NewSource(42))
}

func aliasedDraw() int {
	f := rand.Intn // want "process-global RNG state"
	return f(10)
}

// Intn is this package's own function, not math/rand's.
func Intn(n int) int { return n - 1 }

func ownIntn() int {
	return Intn(10) // ok: not a math/rand draw
}
