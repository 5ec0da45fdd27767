package dist

import (
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
)

// DefaultTimeout bounds every blocking network operation (dial, accept,
// frame read/write) when neither core.Config.DistTimeout nor the
// EASYSCALE_DIST_TIMEOUT environment variable overrides it. A hung peer
// therefore surfaces as a deadline error instead of wedging the runtime.
const DefaultTimeout = 30 * time.Second

// resolveTimeout picks the operation timeout: an explicit config value wins,
// then EASYSCALE_DIST_TIMEOUT (resolved through core.ConfigFromEnv, the
// single environment-override point), then DefaultTimeout.
func resolveTimeout(cfg time.Duration) time.Duration {
	if d := core.ConfigFromEnv(core.Config{DistTimeout: cfg}).DistTimeout; d > 0 {
		return d
	}
	return DefaultTimeout
}

// deadlineConn arms a fresh read/write deadline before every I/O operation,
// so each frame header, payload chunk, and write gets the full timeout — a
// live transfer never trips the deadline, a stalled peer always does.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
}

// withDeadline wraps a connection so every subsequent Read/Write is bounded
// by timeout. A non-positive timeout leaves the connection untouched.
func withDeadline(c net.Conn, timeout time.Duration) net.Conn {
	if timeout <= 0 {
		return c
	}
	if dc, ok := c.(*deadlineConn); ok {
		c = dc.Conn
	}
	return &deadlineConn{Conn: c, timeout: timeout}
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// deadliner is the listener capability needed to bound Accept.
type deadliner interface {
	SetDeadline(time.Time) error
}

// acceptTimeout accepts one connection, bounded by timeout when the listener
// supports deadlines (TCP does), and returns it wrapped in the same timeout.
func acceptTimeout(ln net.Listener, timeout time.Duration) (net.Conn, error) {
	if d, ok := ln.(deadliner); ok && timeout > 0 {
		if err := d.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
	}
	c, err := ln.Accept()
	if err != nil {
		return nil, fmt.Errorf("dist: accept: %w", err)
	}
	return withDeadline(c, timeout), nil
}

// backoff returns the jittered exponential delay before retry `attempt`
// (0-based): base·2^attempt, capped at max, scaled by a uniform jitter in
// [0.5, 1.5) drawn from jit so concurrent retriers don't thundering-herd in
// lockstep.
func backoff(attempt int, base, max time.Duration, jit *rng.Stream) time.Duration {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return time.Duration((0.5 + jit.Float64()) * float64(d))
}

// dialRetry dials addr with jittered exponential backoff until it connects
// or the overall timeout elapses, then wraps the connection in per-operation
// deadlines. This is what lets worker processes be launched before the
// coordinator (or a retried attempt's leader) is listening.
func dialRetry(addr string, timeout time.Duration, seed uint64) (net.Conn, error) {
	jit := rng.NewNamed(seed, "dist-dial:"+addr)
	deadline := time.Now().Add(timeout)
	for attempt := 0; ; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			remaining = time.Millisecond
		}
		c, err := net.DialTimeout("tcp", addr, remaining)
		if err == nil {
			return withDeadline(c, timeout), nil
		}
		wait := backoff(attempt, 5*time.Millisecond, 250*time.Millisecond, jit)
		if time.Now().Add(wait).After(deadline) {
			return nil, fmt.Errorf("dist: dial %s: timed out after %d attempts: %w", addr, attempt+1, err)
		}
		time.Sleep(wait)
	}
}
