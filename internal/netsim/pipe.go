package netsim

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// pipe implements an in-memory, buffered, full-duplex connection pair with
// deadline support. Unlike net.Pipe, writes complete as soon as the data is
// buffered, which matches TCP's behaviour closely enough for HTTP
// request/response traffic and avoids lock-step deadlocks between
// middleboxes that read and write concurrently.

const pipeBufferLimit = 1 << 20 // per-direction buffer cap, like a TCP window

// halfPipe is one direction of a duplex conn: one side writes, the other reads.
type halfPipe struct {
	mu       sync.Mutex
	cond     sync.Cond // L is &mu
	buf      []byte
	wclosed  bool // write side closed: readers drain then see io.EOF
	rclosed  bool // read side closed: writers see io.ErrClosedPipe
	rdl, wdl deadline
}

// deadline is a read or write deadline. Its timer is armed only once a
// call actually waits on the cond (wait), so a call that never blocks
// costs no timer. An armed timer is kept until the deadline is set again
// and stopped when the half closes: nobody waits on a closed half, and a
// stopped timer no longer holds the pipe reachable.
type deadline struct {
	t     time.Time
	timer *time.Timer
}

// set must be called with the halfPipe mutex held.
func (d *deadline) set(t time.Time) {
	d.t = t
	d.stop()
}

// stop must be called with the halfPipe mutex held.
func (d *deadline) stop() {
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
}

// expired must be called with the halfPipe mutex held. time.Until reads
// only the monotonic clock when t carries a monotonic reading, as every
// deadline made with time.Now().Add does, and answers as
// !time.Now().Before(t) would.
func (d *deadline) expired() bool {
	return !d.t.IsZero() && time.Until(d.t) <= 0
}

// wait blocks on h's cond until something changes, first arming d's
// timer so the wait ends by the deadline. Callers hold h.mu and have
// checked that d has not expired.
func (h *halfPipe) wait(d *deadline) {
	if !d.t.IsZero() && d.timer == nil {
		d.timer = time.AfterFunc(time.Until(d.t), h.wake)
	}
	h.cond.Wait()
}

// wake is the deadline timer's callback: blocked readers and writers
// recheck their deadline.
func (h *halfPipe) wake() {
	h.mu.Lock()
	h.cond.Broadcast()
	h.mu.Unlock()
}

func (h *halfPipe) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if h.rclosed {
			return 0, io.ErrClosedPipe
		}
		if h.rdl.expired() {
			return 0, os.ErrDeadlineExceeded
		}
		if len(h.buf) > 0 {
			n := copy(p, h.buf)
			h.buf = h.buf[n:]
			if len(h.buf) == 0 {
				h.buf = nil
			}
			h.cond.Broadcast() // wake writers blocked on a full buffer
			return n, nil
		}
		if h.wclosed {
			return 0, io.EOF
		}
		h.wait(&h.rdl)
	}
}

func (h *halfPipe) write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := 0
	for {
		if h.wclosed || h.rclosed {
			return total, io.ErrClosedPipe
		}
		if h.wdl.expired() {
			return total, os.ErrDeadlineExceeded
		}
		if len(p) == 0 {
			return total, nil
		}
		if room := pipeBufferLimit - len(h.buf); room > 0 {
			n := min(room, len(p))
			h.buf = append(h.buf, p[:n]...)
			p = p[n:]
			total += n
			h.cond.Broadcast()
			continue
		}
		h.wait(&h.wdl)
	}
}

// closeWrite and closeRead end every wait on the half: a reader of a
// write-closed half drains and sees io.EOF, and a writer to a
// read-closed half sees io.ErrClosedPipe, so neither deadline's timer
// is needed again.
func (h *halfPipe) closeWrite() {
	h.mu.Lock()
	h.wclosed = true
	h.closed()
	h.mu.Unlock()
}

func (h *halfPipe) closeRead() {
	h.mu.Lock()
	h.rclosed = true
	h.closed()
	h.mu.Unlock()
}

// closed must be called with the halfPipe mutex held.
func (h *halfPipe) closed() {
	h.rdl.stop()
	h.wdl.stop()
	h.cond.Broadcast()
}

// conn is one endpoint of a duplex pipe. It implements net.Conn.
type conn struct {
	rd, wr        *halfPipe // rd: peer writes, we read; wr: we write, peer reads
	local, remote *simAddr
	closeOnce     sync.Once
}

// connPair is one duplex connection: both endpoints, both directions and
// both addresses in a single allocation.
type connPair struct {
	a, b         conn     // a is the dialer's end, b the far end
	ab, ba       halfPipe // ab: a writes, b reads; ba: b writes, a reads
	addrA, addrB simAddr
}

// newConnPair returns a fresh duplex connection between addresses a and b.
func newConnPair(a, b simAddr) *connPair {
	p := &connPair{addrA: a, addrB: b}
	p.ab.cond.L = &p.ab.mu
	p.ba.cond.L = &p.ba.mu
	p.a = conn{rd: &p.ba, wr: &p.ab, local: &p.addrA, remote: &p.addrB}
	p.b = conn{rd: &p.ab, wr: &p.ba, local: &p.addrB, remote: &p.addrA}
	return p
}

func (c *conn) Read(p []byte) (int, error)  { return c.rd.read(p) }
func (c *conn) Write(p []byte) (int, error) { return c.wr.write(p) }

func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		c.wr.closeWrite()
		c.rd.closeRead()
	})
	return nil
}

// CloseWrite half-closes the connection, signalling EOF to the peer while
// still allowing reads (like TCP FIN). httpwire uses this for tunnelling.
func (c *conn) CloseWrite() error {
	c.wr.closeWrite()
	return nil
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)  //nolint:errcheck // cannot fail
	c.SetWriteDeadline(t) //nolint:errcheck // cannot fail
	return nil
}

// SetReadDeadline and SetWriteDeadline wake any call blocked on the
// deadline's half, which rechecks it and, if it waits again, arms a
// timer for the new deadline.
func (c *conn) SetReadDeadline(t time.Time) error {
	c.rd.mu.Lock()
	c.rd.rdl.set(t)
	c.rd.cond.Broadcast()
	c.rd.mu.Unlock()
	return nil
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.wr.mu.Lock()
	c.wr.wdl.set(t)
	c.wr.cond.Broadcast()
	c.wr.mu.Unlock()
	return nil
}

// cannedConn is the dialer's end of a connection to a Response, with no
// pipe behind it. It reads the shared answer in place and then io.EOF,
// and it accepts and drops writes, since a Response never reads its
// request. Otherwise it keeps a pipe endpoint's rules: a read or write
// past its deadline fails before touching any byte, a write after
// CloseWrite or Close and a read after Close fail with io.ErrClosedPipe,
// and it hands out *simAddr addresses. It never waits, so a deadline is
// only checked, and no timer is armed. It is one allocation.
type cannedConn struct {
	mu               sync.Mutex
	answer           []byte // what is left to read
	rdl, wdl         deadline
	rclosed, wclosed bool
	local, remote    simAddr
}

func (c *cannedConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.rclosed:
		return 0, io.ErrClosedPipe
	case c.rdl.expired():
		return 0, os.ErrDeadlineExceeded
	case len(c.answer) == 0:
		return 0, io.EOF
	}
	n := copy(p, c.answer)
	c.answer = c.answer[n:]
	return n, nil
}

func (c *cannedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.wclosed:
		return 0, io.ErrClosedPipe
	case c.wdl.expired():
		return 0, os.ErrDeadlineExceeded
	}
	return len(p), nil
}

func (c *cannedConn) Close() error {
	c.mu.Lock()
	c.rclosed, c.wclosed = true, true
	c.mu.Unlock()
	return nil
}

// CloseWrite half-closes the connection; the answer can still be read.
func (c *cannedConn) CloseWrite() error {
	c.mu.Lock()
	c.wclosed = true
	c.mu.Unlock()
	return nil
}

func (c *cannedConn) LocalAddr() net.Addr  { return &c.local }
func (c *cannedConn) RemoteAddr() net.Addr { return &c.remote }

func (c *cannedConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdl.set(t)
	c.wdl.set(t)
	c.mu.Unlock()
	return nil
}

func (c *cannedConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdl.set(t)
	c.mu.Unlock()
	return nil
}

func (c *cannedConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdl.set(t)
	c.mu.Unlock()
	return nil
}
