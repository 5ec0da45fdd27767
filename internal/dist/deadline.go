package dist

import (
	"fmt"
	"net"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/rng"
)

// DefaultTimeout bounds every blocking network operation (dial, accept,
// frame read/write) when core.Config.DistTimeout does not override it. A hung
// peer therefore surfaces as a deadline error instead of wedging the runtime.
const DefaultTimeout = 30 * time.Second

// resolveTimeout picks the operation timeout: a positive config value, else
// DefaultTimeout.
func resolveTimeout(cfg time.Duration) time.Duration {
	if cfg > 0 {
		return cfg
	}
	return DefaultTimeout
}

// conn is a connection of the runtime's own planes. It arms a fresh deadline
// before every read and write, so each frame header, payload chunk, and write
// gets the full timeout — a live transfer never trips it, a stalled peer
// always does. And it owns the buffers its frames go through, which keep their
// capacity across frames and phases: rbuf holds the payload of the frame read
// last (ReadFrame), frame the one being built, header in front, so it leaves
// in one Write, hdr the header read last. A steady-state frame costs no
// allocation and one copy per hop; in return a payload read from a conn is
// valid only until the next read: its reader copies what must outlive that, or
// adopts the buffer by dropping rbuf. One goroutine uses a conn at a time.
type conn struct {
	net.Conn
	timeout time.Duration
	rbuf    []byte
	frame   checkpoint.Writer
	hdr     [frameHeader]byte
}

// withDeadline wraps a connection so every Read/Write is bounded by timeout.
func withDeadline(c net.Conn, timeout time.Duration) *conn {
	return &conn{Conn: c, timeout: timeout}
}

func (c *conn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// begin starts a frame: the writer has the header reserved and takes the payload.
func (c *conn) begin() *checkpoint.Writer {
	c.frame.Reset(frameHeader)
	return &c.frame
}

// payloadLen is the payload size of the frame begun last.
func (c *conn) payloadLen() int { return c.frame.Len() - frameHeader }

// send fills in the header of the frame begun last and writes the frame to
// the connection, sendTo to another one; the frame stays in the buffer until
// the next begin, so it can go to several.
func (c *conn) send(t MsgType) error { return c.sendTo(c, t) }

func (c *conn) sendTo(dst *conn, t MsgType) error {
	if c.payloadLen() > maxFrame {
		return fmt.Errorf("dist: refusing to write frame of %d bytes (limit %d)", c.payloadLen(), maxFrame)
	}
	putFrameHeader(c.frame.Bytes(), t, c.payloadLen())
	if _, err := dst.Write(c.frame.Bytes()); err != nil {
		return fmt.Errorf("dist: write frame: %w", err)
	}
	return nil
}

// deadliner is a listener that can bound Accept.
type deadliner interface {
	net.Listener
	SetDeadline(time.Time) error
}

// acceptTimeout accepts one connection, bounded by timeout when the listener
// supports deadlines (TCP does), and returns it wrapped in the same timeout.
func acceptTimeout(ln net.Listener, timeout time.Duration) (*conn, error) {
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

// dial connects to addr within dialTimeout and wraps the connection in
// per-operation deadlines of timeout.
func dial(addr string, dialTimeout, timeout time.Duration) (*conn, error) {
	//detlint:ignore deadlineio -- the raw conn goes straight into withDeadline, whose Read and Write each arm a deadline first
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return withDeadline(c, timeout), nil
}

// dialRetry dials addr with jittered exponential backoff until it connects
// or the overall timeout elapses, then wraps the connection in per-operation
// deadlines. This is what lets worker processes be launched before the
// coordinator (or a retried attempt's leader) is listening.
func dialRetry(addr string, timeout time.Duration, seed uint64) (*conn, error) {
	jit := rng.NewNamed(seed, "dist-dial:"+addr)
	deadline := time.Now().Add(timeout)
	for attempt := 0; ; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			remaining = time.Millisecond
		}
		c, err := dial(addr, remaining, timeout)
		if err == nil {
			return c, nil
		}
		wait := backoff(attempt, 5*time.Millisecond, 250*time.Millisecond, jit)
		if time.Now().Add(wait).After(deadline) {
			return nil, fmt.Errorf("dist: dial %s: timed out after %d attempts: %w", addr, attempt+1, err)
		}
		time.Sleep(wait)
	}
}
