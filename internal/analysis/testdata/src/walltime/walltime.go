// Package walltime is the detlint walltime fixture: wall-clock reads outside
// the allow-listed deadline/measurement packages steer decisions.
package walltime

import "time"

func pickFastest(candidates []func()) int {
	best, bestTime := 0, time.Duration(1<<62)
	for i, c := range candidates {
		start := time.Now() // want `time\.Now`
		c()
		if el := time.Since(start); el < bestTime { // want `time\.Since`
			best, bestTime = i, el
		}
	}
	return best
}

func deadlineIn(d time.Duration) time.Time {
	return time.Now().Add(d) // want `time\.Now`
}

func sleeping() {
	time.Sleep(time.Millisecond) // ok: produces no value a decision can read
}

// aliased takes the clock as a value: the reference is the read.
func aliased() time.Time {
	now := time.Now // want `time\.Now`
	return now()
}

// Now is this package's own clock, not the wall clock.
func Now() int64 { return 0 }

func ownClock() int64 {
	return Now() // ok: not package time's function
}
