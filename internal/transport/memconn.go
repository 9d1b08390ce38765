package transport

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// memConn is one end of an in-process connection: a net.Conn with
// net.Pipe's contract and none of its channels. A Write publishes the
// caller's slice and blocks until Reads have consumed all of it, either end
// closed or its deadline passed; a Read copies straight out of the
// published slice, any number of Reads to a Write, and wakes the writer
// only when the last byte is gone (net.Pipe reschedules the writer after
// every Read, through a select over five channels, to offer the rest).
//
// Nothing is buffered, on purpose. Back-pressure is what it was under
// net.Pipe; a write that was interrupted reports exactly the bytes the peer
// took, so a killed node leaves nothing in flight for a restarted one to
// find; and no operation allocates (a buffered variant was measured and
// rejected: DESIGN.md §14).
//
// Errors are net.Pipe's: io.EOF reading after the peer closed,
// io.ErrClosedPipe on an end that was itself closed or writing to a closed
// peer, and an os.ErrDeadlineExceeded net.Error after a deadline. Concurrent
// Writes are serialized, each delivered whole. The one deliberate
// difference: a zero-length Write returns (0, nil) without waiting for a
// reader, where net.Pipe parks it until one arrives — the transport never
// writes zero bytes.
type memConn struct {
	r *memPipe // carries the peer's writes to this end
	w *memPipe // carries this end's writes to the peer
}

// memPipe is one direction of a connection. Its mutex is a leaf: nothing
// else is acquired while it is held, and closing an end takes the two
// directions' mutexes one after the other.
type memPipe struct {
	mu sync.Mutex
	rd sync.Cond // readers wait for a published write, a close or their deadline
	wr sync.Cond // writers wait for their turn, then for their slice to be consumed

	data    []byte      // guarded by mu; the unread rest of the write in progress: the writer's own slice
	writing bool        // guarded by mu; a Write owns the direction
	rclosed bool        // guarded by mu; the reading end closed
	wclosed bool        // guarded by mu; the writing end closed
	rdl     memDeadline // guarded by mu; the reading end's read deadline
	wdl     memDeadline // guarded by mu; the writing end's write deadline
}

// memDeadline is one armed deadline: a timer that marks it expired and
// broadcasts to the goroutines it bounds. gen tells a timer that fired
// after it was replaced that it is stale.
type memDeadline struct {
	timer   *time.Timer
	gen     uint64
	expired bool
}

// memLink is the one allocation behind a connection: both directions and
// both ends.
type memLink struct {
	ab, ba memPipe
	a, b   memConn
}

// newMemConnPair returns the two ends of a fresh connection.
func newMemConnPair() (net.Conn, net.Conn) {
	l := &memLink{}
	for _, p := range [...]*memPipe{&l.ab, &l.ba} {
		p.rd.L = &p.mu
		p.wr.L = &p.mu
	}
	l.a = memConn{r: &l.ba, w: &l.ab}
	l.b = memConn{r: &l.ab, w: &l.ba}
	return &l.a, &l.b
}

// The deadline errors are shared values shaped like net.Pipe's, so that
// expiry allocates nothing either.
var (
	errMemReadDeadline  error = &net.OpError{Op: "read", Net: "pipe", Err: os.ErrDeadlineExceeded}
	errMemWriteDeadline error = &net.OpError{Op: "write", Net: "pipe", Err: os.ErrDeadlineExceeded}
)

// readErr reports why a Read must fail now, in net.Pipe's order of
// precedence. A close discards whatever a writer still has published.
// Caller holds mu.
func (p *memPipe) readErr() error {
	switch {
	case p.rclosed:
		return io.ErrClosedPipe
	case p.wclosed:
		return io.EOF
	case p.rdl.expired:
		return errMemReadDeadline
	}
	return nil
}

// writeErr reports why a Write must fail now. Caller holds mu.
func (p *memPipe) writeErr() error {
	switch {
	case p.wclosed, p.rclosed:
		return io.ErrClosedPipe
	case p.wdl.expired:
		return errMemWriteDeadline
	}
	return nil
}

// Read implements net.Conn. Like net.Pipe's, it waits for a write even when
// b is empty.
func (c *memConn) Read(b []byte) (int, error) {
	p := c.r
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if err := p.readErr(); err != nil {
			return 0, err
		}
		if len(p.data) > 0 {
			break
		}
		p.rd.Wait()
	}
	n := copy(b, p.data)
	p.data = p.data[n:]
	if len(p.data) == 0 {
		p.data = nil
		p.wr.Broadcast() // the owner among the waiting writers returns
	} else {
		p.rd.Signal() // the rest is for whichever reader comes next
	}
	return n, nil
}

// Write implements net.Conn.
func (c *memConn) Write(b []byte) (int, error) {
	p := c.w
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if err := p.writeErr(); err != nil {
			return 0, err
		}
		if !p.writing {
			break
		}
		p.wr.Wait()
	}
	if len(b) == 0 {
		return 0, nil
	}
	p.writing, p.data = true, b
	p.rd.Signal()
	var err error
	for {
		p.wr.Wait()
		if len(p.data) == 0 {
			break
		}
		if err = p.writeErr(); err != nil {
			break
		}
	}
	// Whatever was not read is withdrawn: b is the caller's again.
	n := len(b) - len(p.data)
	p.writing, p.data = false, nil
	p.wr.Signal() // the next writer's turn
	return n, err
}

// Close implements net.Conn. It wakes every Read and Write blocked on
// either end, in both directions.
func (c *memConn) Close() error {
	p := c.r
	p.mu.Lock()
	p.rclosed = true
	p.rdl.stop()
	p.wake()
	p.mu.Unlock()

	p = c.w
	p.mu.Lock()
	p.wclosed = true
	p.wdl.stop()
	p.wake()
	p.mu.Unlock()
	return nil
}

// wake makes every blocked Read and Write re-examine the direction's state.
func (p *memPipe) wake() {
	p.rd.Broadcast()
	p.wr.Broadcast()
}

// SetDeadline implements net.Conn.
func (c *memConn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *memConn) SetReadDeadline(t time.Time) error {
	p := c.r
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.arm(&p.rdl, &p.rd, t)
}

// SetWriteDeadline implements net.Conn.
func (c *memConn) SetWriteDeadline(t time.Time) error {
	p := c.w
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.arm(&p.wdl, &p.wr, t)
}

// arm replaces deadline d, which bounds the goroutines waiting on cond,
// with t; the zero time disarms it. Caller holds mu.
func (p *memPipe) arm(d *memDeadline, cond *sync.Cond, t time.Time) error {
	if p.rclosed || p.wclosed {
		return io.ErrClosedPipe
	}
	d.stop()
	d.expired = false
	if t.IsZero() {
		return nil
	}
	dur := time.Until(t)
	if dur <= 0 {
		d.expired = true
		cond.Broadcast()
		return nil
	}
	gen := d.gen
	d.timer = time.AfterFunc(dur, func() {
		p.mu.Lock()
		if d.gen == gen {
			d.expired = true
			cond.Broadcast()
		}
		p.mu.Unlock()
	})
	return nil
}

// stop disarms the deadline's timer; one that has already fired and is
// waiting for the mutex finds its generation gone. An expiry that has
// been delivered stays delivered.
func (d *memDeadline) stop() {
	d.gen++
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
}

// memAddr is the address of both ends, as net.Pipe's is.
type memAddr struct{}

func (memAddr) Network() string { return "pipe" }
func (memAddr) String() string  { return "pipe" }

// LocalAddr implements net.Conn.
func (*memConn) LocalAddr() net.Addr { return memAddr{} }

// RemoteAddr implements net.Conn.
func (*memConn) RemoteAddr() net.Addr { return memAddr{} }
