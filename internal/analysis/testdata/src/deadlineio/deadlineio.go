// Fixture for the deadlineio analyzer: blocking socket operations must
// carry deadlines.
package deadlineio

import (
	"net"
	"time"
)

// rawDial has no timeout at all.
func rawDial(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr) // want `net.Dial has no timeout`
}

// dialNoDeadlines bounds the dial but leaves every later operation free to
// block forever.
func dialNoDeadlines(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, time.Second) // want `net.DialTimeout bounds only the dial`
}

// dialArmed bounds the dial and arms per-operation deadlines.
func dialArmed(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	if err := c.SetDeadline(time.Now().Add(time.Second)); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// acceptUnbounded blocks forever on a silent listener.
func acceptUnbounded(ln net.Listener) (net.Conn, error) {
	return ln.Accept() // want `Accept with no deadline in sight`
}

// acceptArmed bounds the accept with a listener deadline.
func acceptArmed(ln *net.TCPListener, timeout time.Duration) (net.Conn, error) {
	if err := ln.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	return ln.Accept()
}

// rawWrite writes on a bare conn with nothing bounding it.
func rawWrite(c net.Conn, p []byte) (int, error) {
	return c.Write(p) // want `Write on a raw net.Conn that no deadline bounds`
}

// rawRead reads on a bare conn declared locally.
func rawRead(src net.Listener, p []byte) (int, error) {
	var c net.Conn
	c, err := src.Accept() // want `Accept with no deadline in sight`
	if err != nil {
		return 0, err
	}
	return c.Read(p) // want `Read on a raw net.Conn that no deadline bounds`
}

// armedIO arms a deadline before the operations; the whole function is
// considered disciplined.
func armedIO(c net.Conn, p []byte) (int, error) {
	if err := c.SetWriteDeadline(time.Now().Add(time.Second)); err != nil {
		return 0, err
	}
	return c.Write(p)
}

// suppressed shows a sanctioned unbounded accept with its reason.
func suppressed(ln net.Listener) (net.Conn, error) {
	//detlint:ignore deadlineio -- fixture: lifetime listener; Close unblocks the accept on teardown
	return ln.Accept()
}

// dialRead reads on the conn DialTimeout returned: a raw conn whatever the
// variable's declared type.
func dialRead(addr string, p []byte) (int, error) {
	c, err := net.DialTimeout("tcp", addr, time.Second) // want `net.DialTimeout bounds only the dial`
	if err != nil {
		return 0, err
	}
	return c.Read(p) // want `Read on a raw net.Conn that no deadline bounds`
}

// timer has a SetDeadline method but is neither a conn nor a listener.
type timer struct{}

func (timer) SetDeadline(time.Time) error { return nil }

// fakeArmed sets a deadline on something other than the conn: it arms
// nothing.
func fakeArmed(c net.Conn, tm timer, p []byte) (int, error) {
	tm.SetDeadline(time.Now())
	return c.Read(p) // want `Read on a raw net.Conn that no deadline bounds`
}
