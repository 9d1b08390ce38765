// Package transport implements HaoCL's communication backbone: an
// asynchronous, length-framed message layer over which the host runtime
// talks to the Node Management Processes.
//
// The design follows paper §III-C. Each node runs an acceptor that listens
// asynchronously; every accepted connection gets one goroutine that reads
// its frames and dispatches each as it is read — the Go equivalent of the
// Boost.Asio acceptor structure the paper describes, with the reader and
// the dispatcher run to completion in one place, since dispatch never
// blocks. Requests from one connection are *dispatched* in
// arrival order: the host runtime pipelines commands without waiting for
// their responses, and in-order dispatch is what lets a later command
// reference the host-assigned event ID of an earlier one that has not
// produced a response yet. Whether execution is also serial is the
// handler's choice — an AsyncHandler (the node's session, with its
// per-queue dispatch lanes) completes requests out of order, and each reply
// leaves as its request completes; a plain Handler keeps the strict FIFO of
// the pre-lane runtime.
//
// The host side issues calls through Go, which ships the request and
// returns a Pending future; Call is Go followed by Wait. Any number of
// outstanding futures from any number of host goroutines are multiplexed
// over one connection via request-ID correlation, and a connection failure
// is sticky: every in-flight and subsequent future resolves to the same
// error.
//
// Both ends write through a connWriter: messages queue, and one goroutine
// drains whatever has accumulated, packs runs of small frames into Batch
// envelopes, and ships the drain with one vectored write per
// protocol.MaxBatchBytes staged — flushing whenever the queue drains, so
// an idle connection never waits on a timer. The node queues each reply
// the moment its request completes. On an idle connection a plain reply,
// and a call its caller waits on at once, are written by the goroutine
// that has them instead, so a serial round trip hands nothing to a writer.
// Both sides read through a pooled buffer, so a burst of small frames
// costs one read, not two a frame.
//
// Every message, in both directions, reaches its connection through one
// function, the connection's frameWriter, and is encoded exactly once, by
// it: small messages straight into one reused staging buffer (packed into
// an envelope when several are waiting), and a bulk message — body above
// protocol.BatchableBodyLimit — as a header in staging plus its payload in
// place, in the same vectored write as its neighbours. Staging is the one
// copy a small or mid-size payload gets, a bulk one gets none, and every
// blob is decoded in place on the way in. The staging buffer comes from the
// payload pool and goes back when the connection's writer is done with it,
// so a short-lived connection does not grow one of its own; DESIGN.md §11
// states who owns which buffer and until when.
//
// Two transports are provided: real TCP (used by cmd/haocl-node and the
// integration tests) and an in-process network of unbuffered in-memory
// connections (used by unit tests and the experiment harness, where
// spawning dozens of OS processes would only add noise).
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/recycle"
)

// Handler processes one decoded request on the server (node) side and
// returns the response message. Returning an error sends an ErrorResp to
// the caller; the connection stays usable.
//
// body — and every message decoded from it, whose blobs are views of it —
// belongs to the handler only until it has produced its response
// (HandleCall returned, or done was invoked): the server recycles request
// envelopes and bulk request bodies once the response is written, so a
// handler that wants the bytes for longer copies them, or, for a plain
// request, answers with a protocol.BodyKeeper, which is handed the body's
// pooled buffer once the response is written (a PeerPush deposit;
// DESIGN.md §11). A response, in turn, is encoded when it is written, which
// may be after the handler returned, and it and everything it references
// must not change before then.
type Handler interface {
	HandleCall(op protocol.Op, body []byte) (protocol.Message, error)
}

// AsyncHandler is a Handler that may complete calls out of order. The
// server invokes HandleCallAsync from the goroutine that reads the
// connection, strictly in arrival order — that call is the handler's
// registration stage — and the handler routes the request to whatever
// internal execution lane it belongs to. It must not block — until it
// returns, nothing more is read from the connection — but a done invoked
// during registration waits while the connection's queue is full. done
// must be invoked exactly once per call, from any goroutine, with the
// response (or error) to ship, which leaves the moment its request
// completes, never behind another request's execution, even an envelope
// mate's (DESIGN.md §4).
//
// Handlers that need the old strictly-serial behavior simply implement
// Handler alone; the server then executes calls inline, in arrival order.
type AsyncHandler interface {
	Handler
	HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error))
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(op protocol.Op, body []byte) (protocol.Message, error)

// HandleCall implements Handler.
func (f HandlerFunc) HandleCall(op protocol.Op, body []byte) (protocol.Message, error) {
	return f(op, body)
}

// ErrClosed is returned by calls issued on a closed client.
var ErrClosed = errors.New("transport: connection closed")

// Client is the host side of one host↔node connection.
type Client struct {
	conn net.Conn
	// w sends every request: its goroutine runs until failAll kills it, and
	// a call its caller waits on at once may be written inline (Call). Its
	// lock is the client's one lock: a send registers its future and queues
	// its message in one section, and w.dead is the client's closed flag,
	// set once onDown has run.
	w connWriter

	pending map[uint64]*Pending // guarded by connWriter.mu; nil once failAll has taken it
	readErr error               // guarded by connWriter.mu; sticky, latched by the first failure
	onDown  func(error)         // guarded by connWriter.mu

	nextID atomic.Uint64
}

// Dial connects to a node's message listener over TCP.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial node %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (TCP or in-memory) as a
// client and starts its response reader.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]*Pending),
	}
	c.w.init(conn)
	go c.readLoop()
	go c.w.run(c.sendFailed)
	return c
}

// EnableBatching does nothing: a client coalesces from its first frame. It
// remains for the benchmark module's ladder, which still calls it.
func (c *Client) EnableBatching() {}

// frameReaders pools the connections' read buffers. A reader is taken
// when a connection's read loop starts and given back when it exits, so a
// short-lived connection does not allocate one. Through it a small frame
// costs one read, or none when an earlier read brought it in; a body
// larger than the buffer is read straight into its frame. Frame bodies
// are always copied out (protocol.ReadFrame), never views of the buffer.
// A new reader's buffer is made by its first Reset, 4 KiB.
var frameReaders recycle.Pool[bufio.Reader]

func newFrameReader(conn net.Conn) *bufio.Reader {
	r := frameReaders.Get()
	r.Reset(conn)
	return r
}

func freeFrameReader(r *bufio.Reader) {
	r.Reset(nil)
	frameReaders.Put(r)
}

// readLoop hands each response to its future. A response envelope is
// unpacked into one reused array, so it costs its frame's allocation and
// nothing more.
func (c *Client) readLoop() {
	r := newFrameReader(c.conn)
	defer freeFrameReader(r)
	var subs []protocol.Frame
	for {
		f, err := protocol.ReadFrame(r)
		if err != nil {
			c.failAll(err)
			return
		}
		if f.Kind != protocol.FrameBatch {
			c.deliver(f.ReqID, f.Op, f.Body)
			continue
		}
		if subs, err = protocol.UnpackBatch(subs[:0], f); err != nil {
			// A malformed envelope poisons the stream's framing.
			c.failAll(err)
			c.conn.Close()
			return
		}
		for i := range subs {
			c.deliver(subs[i].ReqID, subs[i].Op, subs[i].Body)
		}
		clear(subs) // the reused array must not keep the envelope's body reachable
	}
}

// deliver hands one response to its waiting future. Responses with no
// waiter are dropped: the caller timed out or the connection is shutting
// down.
func (c *Client) deliver(reqID uint64, op protocol.Op, body []byte) {
	c.w.mu.Lock()
	p, ok := c.pending[reqID]
	if ok {
		delete(c.pending, reqID)
	}
	c.w.mu.Unlock()
	if ok {
		p.respOp, p.body = op, body
		p.answered.Store(true)
		p.done.Done()
	}
}

// sendFailed reports a failed write, by the writer or by a caller writing
// inline. It means the connection is gone (queued messages are
// pre-validated); closing it unwinds the read side and releases the peer's
// session.
func (c *Client) sendFailed(err error) {
	c.failAll(fmt.Errorf("transport: send: %w", err))
	c.conn.Close()
}

// Behind the run being written, a connection's queue holds at most
// maxQueuedBytes of wire size, payloads included, and maxQueuedMessages
// messages; producers block beyond. The byte bound restores the
// backpressure a blocking write provides — without it a host pipelining
// bulk writes over a slow link could queue without bound — and the message
// bound keeps the queue's one array at a few envelopes' worth, where a
// node's replay backlog would grow it on every connection.
const (
	maxQueuedBytes    = 8 << 20
	maxQueuedMessages = 4 * protocol.MaxBatchMessages
)

// connWriter is one connection's write side: a queue of outgoing messages
// and the goroutine (run) that drains it through the connection's
// frameWriter. Batches only form when producers outpace the writer, which
// is exactly when coalescing pays. A run stays in the queue's array while
// it is written, producers appending behind it, and the next drain moves
// what they queued to the front, so a connection keeps one array. Whoever
// sets busy owns fw until it clears it: run, or a goroutine writing one
// message inline (writeIdle).
type connWriter struct {
	fw frameWriter
	// wakes counts the runs run has written: each one a hand-off from the
	// goroutine that queued it to the writer's.
	wakes atomic.Int64

	mu         sync.Mutex
	more       sync.Cond           // on mu: wakes run for a message, a finished inline write, or death
	space      sync.Cond           // on mu: wakes producers when the queue drains
	queue      []protocol.Outgoing // guarded by mu; the run being written stays at its head
	queueBytes int                 // guarded by mu; wire bytes waiting behind the run
	waiting    int                 // guarded by mu; messages waiting behind the run
	busy       bool                // guarded by mu; a write holds fw
	dead       bool                // guarded by mu; the queue is abandoned
}

// init points w at the connection it writes.
func (w *connWriter) init(conn io.Writer) {
	w.fw.w = conn
	w.more.L, w.space.L = &w.mu, &w.mu
}

// run drains the queue until the writer is killed, taking everything that
// accumulated while the previous write was in flight. A write error goes
// to failed, if any; the owner kills the writer. Once killed, run waits for
// an inline write still holding fw and gives the staging buffer back.
func (w *connWriter) run(failed func(error)) {
	w.mu.Lock()
	for {
		for !w.dead && (w.busy || len(w.queue) == 0) {
			w.more.Wait()
		}
		if w.dead {
			break
		}
		run := w.queue
		w.busy, w.queueBytes, w.waiting = true, 0, 0
		w.wakes.Add(1)
		w.space.Broadcast()
		w.mu.Unlock()
		if err := w.fw.write(run...); err != nil && failed != nil {
			failed(err)
		}
		w.mu.Lock()
		w.busy = false
		if !w.dead {
			n := copy(w.queue, w.queue[len(run):])
			clear(w.queue[n:]) // the reused array must not keep written messages reachable
			w.queue = w.queue[:n]
		}
	}
	for w.busy {
		w.more.Wait()
	}
	w.mu.Unlock()
	w.fw.release()
}

// writeIdle writes m on the calling goroutine when the writer is idle and
// nothing is queued, and reports whether it did: a message its sender
// waits on at once then pays no hand-off to run. A write error goes to
// failed, if any, as run's would.
//
// Caller holds mu; it is held again on return.
func (w *connWriter) writeIdle(m protocol.Outgoing, failed func(error)) bool {
	if w.dead || w.busy || len(w.queue) > 0 {
		return false
	}
	w.busy = true
	w.mu.Unlock()
	if err := w.fw.write(m); err != nil && failed != nil {
		failed(err)
	}
	w.mu.Lock()
	w.busy = false
	if len(w.queue) > 0 || w.dead {
		w.more.Signal()
	}
	return true
}

// waitForRoom blocks while the queue is full and the writer alive.
//
// Caller holds mu.
func (w *connWriter) waitForRoom() {
	for (w.queueBytes >= maxQueuedBytes || w.waiting >= maxQueuedMessages) && !w.dead {
		w.space.Wait()
	}
}

// add queues m, or reports false once the writer is dead. Room is counted
// in wire size, so zero-body control messages still hit the byte bound.
//
// Caller holds mu.
func (w *connWriter) add(m protocol.Outgoing) bool {
	if w.dead {
		return false
	}
	w.queue = append(w.queue, m)
	w.queueBytes += m.WireSize()
	w.waiting++
	if !w.busy {
		w.more.Signal()
	}
	return true
}

// kill abandons the writer: run returns, and queued messages die with the
// connection, what they borrowed left to the collector.
//
// Caller holds mu.
func (w *connWriter) kill() {
	w.dead, w.queue = true, nil
	w.more.Broadcast()
	w.space.Broadcast()
}

// frameWriter is the one function through which messages reach a
// connection: both ends' connWriters write through it, so the packing
// policy, the one encoding of each message and the copy-free bulk write
// exist exactly once. It is not safe for concurrent use; its connWriter
// hands it to one writer at a time.
//
// A write goes out in chunks, each with one vectored write (writev on real
// sockets). Runs of small messages are encoded straight into the staging
// buffer — a single message as a plain frame, several as a Batch envelope —
// so the encoding is the only copy a payload of up to BatchableBodyLimit
// gets. A message with a body above BatchableBodyLimit stays out of
// envelopes: its header and fields are staged and its payload is referenced
// where it lies, as one more piece of the chunk's vector. Bulk payloads
// would blow up envelope sizes, and a staging copy would double their
// memory footprint. A chunk ends with the message that brings it to
// MaxBatchBytes — a small message counted at its wire size, a bulk one at
// its staged head and tail — so the staging buffer keeps the size class of
// one bounded chunk however much a drain took. Once a chunk's write has
// returned, what its messages borrowed goes back (giveBack): payloads, and
// the request frames replies still view. The staging buffer, the vector and
// the payload references are reused from write to write. The staging
// buffer is taken from the payload pool at the first write, replaced by
// one of a larger size class when a chunk outgrows it, and given back by
// release once the writer is done; a write after that takes a fresh one.
type frameWriter struct {
	w       io.Writer
	staging *protocol.Buf // a chunk's packed runs and bulk frames' heads and tails
	refs    []payloadRef  // a chunk's bulk payloads, in order
	vec     [][]byte      // backing array of bufs
	bufs    net.Buffers   // a field, so WriteTo's receiver does not escape per call
}

// payloadRef is a bulk payload written in place: on the wire it follows
// the chunk's staged bytes up to offset at.
type payloadRef struct {
	at      int
	payload []byte
}

// reserve returns out with room for n more bytes, moving it into a staging
// buffer of a larger size class when it has none.
func (fw *frameWriter) reserve(out []byte, n int) []byte {
	if cap(out)-len(out) >= n {
		return out
	}
	_, size := protocol.SizeClass(len(out) + n)
	b := protocol.GetBuf(size)
	out = append(b.B[:0], out...)
	fw.staging.Free()
	fw.staging = b
	return out
}

// release gives the staging buffer back to the payload pool.
func (fw *frameWriter) release() {
	fw.staging.Free()
	fw.staging = nil
}

// write encodes and writes msgs in order, a chunk at a time. What a
// message borrowed goes back once the write carrying it has returned
// (giveBack).
func (fw *frameWriter) write(msgs ...protocol.Outgoing) error {
	for len(msgs) > 0 {
		n, err := fw.writeChunk(msgs)
		if err != nil {
			return err
		}
		msgs = msgs[n:]
	}
	return nil
}

// writeChunk stages and writes the chunk msgs start with, and returns how
// many messages it took.
func (fw *frameWriter) writeChunk(msgs []protocol.Outgoing) (int, error) {
	var out []byte
	if fw.staging != nil {
		out = fw.staging.B[:0]
	}
	start, n, size := 0, 0, 0
	for n < len(msgs) && size < protocol.MaxBatchBytes {
		m := &msgs[n]
		if m.Size <= protocol.BatchableBodyLimit {
			n++
			size += m.WireSize()
			if n-start == protocol.MaxBatchMessages {
				out, start = fw.pack(out, msgs[start:n]), n
			}
			continue
		}
		if m.Size > protocol.MaxFrameSize {
			if n > 0 {
				break // the chunk before it still goes out
			}
			return 0, fmt.Errorf("%w: %d bytes", protocol.ErrFrameTooBig, m.Size)
		}
		out = fw.pack(out, msgs[start:n])
		// A head and tail fit in ReferenceFloor bytes but for an unusual
		// message, whose encoding grows into memory the collector takes.
		head := len(out)
		var split int
		var payload []byte
		out, split, payload = protocol.AppendOutgoingHead(fw.reserve(out, protocol.ReferenceFloor), m)
		if payload != nil {
			fw.refs = append(fw.refs, payloadRef{at: split, payload: payload})
		}
		n++
		start, size = n, size+len(out)-head
	}
	out = fw.pack(out, msgs[start:n])

	vec, at := fw.vec[:0], 0
	for _, r := range fw.refs {
		vec = append(vec, out[at:r.at], r.payload)
		at = r.at
	}
	if at < len(out) {
		vec = append(vec, out[at:])
	}
	fw.bufs = vec
	_, err := fw.bufs.WriteTo(fw.w)
	// Nothing written may stay reachable from the reused vector and
	// references, whatever WriteTo consumed before an error.
	clear(vec)
	clear(fw.refs)
	fw.vec, fw.refs = vec[:0], fw.refs[:0]
	for i := range msgs[:n] {
		giveBack(&msgs[i])
	}
	return n, err
}

// pack stages a run of small messages onto out as one wire unit.
func (fw *frameWriter) pack(out []byte, run []protocol.Outgoing) []byte {
	if len(run) == 0 {
		return out
	}
	out = fw.reserve(out, protocol.StagedSize(run))
	if len(run) == 1 {
		return protocol.AppendOutgoing(out, &run[0])
	}
	return protocol.AppendOutgoingBatch(out, run)
}

// freer is a message that borrows its payload from an owner until it is
// on the wire — a node's pooled read snapshot (protocol.ReadBufferResp), a
// host's pooled write record — and gives it back when freed. A message a
// failed connection drops is never freed: what it borrowed is left to the
// collector.
type freer interface{ Free() }

// giveBack gives back what m borrowed once its write has returned, or once
// a dead writer refused it: its payload (freer), and the request frame it
// answers (Borrows), released or, to a BodyKeeper response, handed over.
func giveBack(m *protocol.Outgoing) {
	if f, ok := m.Msg.(freer); ok {
		f.Free()
	}
	if k, ok := m.Msg.(protocol.BodyKeeper); ok && m.Borrows != nil {
		k.KeepBody(m.Borrows.Detach())
	} else if m.Borrows != nil {
		m.Borrows.Release()
	}
}

// failAll fails the connection with err, once: the first failure does the
// work, a later one (the other loop noticing, Close after a crash) finds
// the sticky error latched and has nothing to add.
//
// It publishes in one order: the sticky error is latched, the OnDown
// callback runs, and only then does any call fail — on the send side (the
// writer killed) as on the receive side (the pending futures, taken in the
// same section). Whoever sees a call fail must be able to observe the state
// the callback established: the host marks the node dead there, which is
// what makes the failure classify as node loss and be recovered from
// instead of escaping to the tenant. So the writer never kills itself on a
// write error: it reports the error here.
func (c *Client) failAll(err error) {
	c.w.mu.Lock()
	if c.readErr != nil {
		c.w.mu.Unlock()
		return
	}
	c.readErr = err
	down := c.onDown
	c.w.mu.Unlock()
	// Outside the lock: the callback typically re-enters the client or
	// kicks off recovery machinery.
	if down != nil {
		down(err)
	}
	// The write side dies with the connection: without this, a client
	// whose peer vanished would park its writer goroutine forever unless
	// the caller remembered to Close. No send registers after this section.
	c.w.mu.Lock()
	pending := c.pending
	c.pending = nil
	c.w.kill()
	c.w.mu.Unlock()
	for _, p := range pending {
		p.answered.Store(true)
		p.done.Done() // with no response: Wait reports the sticky error
	}
}

// OnDown registers a callback invoked exactly once, from the goroutine
// that detects the failure, when the connection dies (read error, send
// error, or Close) and before any call reports that failure. The callback
// receives the sticky connection error. Registering after the connection
// already died invokes the callback immediately.
func (c *Client) OnDown(fn func(error)) {
	c.w.mu.Lock()
	if err := c.readErr; err != nil {
		c.w.mu.Unlock()
		fn(err)
		return
	}
	c.onDown = fn
	c.w.mu.Unlock()
}

// Pending is one in-flight call: a future that resolves when the matching
// response frame arrives, when the request could not be sent, or when the
// connection dies (all in-flight futures then fail with the same sticky
// connection error). Wait is safe to call from any goroutine, any number
// of times; the first call blocks and every call returns the same result.
type Pending struct {
	c  *Client
	op protocol.Op
	// answered is set before done is released, and by settle: Wait would
	// return at once (Answered).
	answered atomic.Bool
	resp     protocol.Message

	// done is released exactly once by whoever removes the call from the
	// client's pending table: deliver, after setting the response, or
	// failAll, leaving respOp zero — every response names an op. A
	// WaitGroup rather than a channel so that the future is one
	// allocation.
	done   sync.WaitGroup
	respOp protocol.Op
	body   []byte // a view of the response frame's body

	once sync.Once
	err  error
}

// Go sends req without waiting for the response and returns the call's
// future. When the response arrives, Wait decodes it into resp (which may
// be nil when the caller only needs the acknowledgement). Messages from
// concurrent Go calls are written whole, but callers needing a defined
// wire order across several Go calls must serialize the calls themselves.
// Go returns once req is queued to the coalescing writer; the queue
// preserves Go-call order.
//
// req is not encoded here: the queue holds the message itself, and the
// writer encodes it, straight into the buffer it sends, after Go has
// returned. So req and everything it references — payloads, lists,
// strings' backing arrays — must stay unmodified until the writer has
// staged or written it (protocol.Outgoing), which a response implies and
// a failed call does not. A caller that cannot promise that passes a
// private copy. A req with a Free method belongs to the transport from Go
// on: the writer frees it once the write carrying it has returned, and a
// connection that dies first drops it unfreed, so the caller must not
// touch it again.
//
// haoclvet:wire
func (c *Client) Go(req protocol.Message, resp protocol.Message) *Pending {
	p := new(Pending)
	c.start(p, req, resp, false)
	return p
}

// Start is Go with caller-owned storage for the future: it sends req and
// makes p the call's future, so a caller that keeps the future inside an
// object of its own (the host's Event) allocates nothing for it. p must be
// a zero Pending that no other call has used, and must not move while the
// call is in flight. Everything Go promises and requires holds for Start:
// a req with a Free method belongs to the transport from Start on.
//
// haoclvet:wire
func (c *Client) Start(p *Pending, req protocol.Message, resp protocol.Message) {
	c.start(p, req, resp, false)
}

// start is Start, and Call's send when now is set: a call its caller waits
// on at once is written on the calling goroutine when the connection is
// idle (writeIdle), as a node writes a plain reply, and queued otherwise.
// The future is registered and its message queued in one section, so a
// send that finds the writer alive is never refused.
func (c *Client) start(p *Pending, req protocol.Message, resp protocol.Message, now bool) {
	p.c, p.op, p.resp = c, req.Op(), resp
	p.done.Add(1)
	id := c.nextID.Add(1)

	out := protocol.NewOutgoing(protocol.FrameRequest, id, req.Op(), req)
	if out.Size > protocol.MaxFrameSize {
		// Reject before queueing so an unsendable message fails only its
		// own call — on the coalescing path a late size error would be
		// connection-fatal.
		p.settle(fmt.Errorf("send %s: %w: %d bytes", req.Op(), protocol.ErrFrameTooBig, out.Size))
		return
	}
	c.w.mu.Lock()
	c.w.waitForRoom()
	if c.w.dead {
		err := c.readErr // latched before the writer was killed
		c.w.mu.Unlock()
		p.settle(err)
		return
	}
	c.pending[id] = p
	if !now || !c.w.writeIdle(out, c.sendFailed) {
		c.w.add(out)
	}
	c.w.mu.Unlock()
}

// settle resolves the future before Wait ever ran (send-side failures).
func (p *Pending) settle(err error) {
	p.once.Do(func() { p.err = err })
	p.answered.Store(true)
}

// Answered reports, without blocking, whether the call has completed —
// answered, or failed — so that Wait would return at once.
func (p *Pending) Answered() bool { return p.answered.Load() }

// Wait blocks until the call completes and returns its error, decoding the
// response into the resp passed to Go. A remote failure surfaces as a
// *protocol.RemoteError; a dead connection as its sticky error. Errors are
// raw at this layer: callers in the recovery path must classify them
// (core.classifyNodeErr) before retry decisions.
//
// haoclvet:errclass-source
func (p *Pending) Wait() error {
	p.once.Do(func() {
		p.done.Wait()
		// The future outlives the call (an Event keeps its Pending); the
		// response's body, and the envelope body behind it, must not.
		op, body := p.respOp, p.body
		p.body = nil
		if op == 0 {
			p.c.w.mu.Lock()
			err := p.c.readErr
			p.c.w.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			p.err = fmt.Errorf("call %s: %w", p.op, err)
			return
		}
		if op == protocol.OpError {
			var er protocol.ErrorResp
			if derr := protocol.DecodeMessage(&er, body); derr != nil {
				p.err = derr
				return
			}
			p.err = &protocol.RemoteError{Op: p.op, Code: er.Code, Message: er.Message}
			return
		}
		if p.resp != nil {
			p.err = protocol.DecodeMessage(p.resp, body)
			p.resp = nil // nor must what was decoded into it
		}
	})
	return p.err
}

// Call sends req and blocks until the matching response arrives, decoding
// it into resp: Go followed by Wait, except that on an idle connection req
// is written by the caller, not handed to the writer. Like Wait, its error
// is raw and needs classification before feeding recovery decisions.
//
// haoclvet:errclass-source
// haoclvet:wire
func (c *Client) Call(req protocol.Message, resp protocol.Message) error {
	p := new(Pending)
	c.start(p, req, resp, true)
	return p.Wait()
}

// Close tears the connection down; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.failAll(ErrClosed)
	return c.conn.Close()
}

// Server is the node side of the backbone: an acceptor plus, per
// connection, one goroutine that reads the connection's requests and hands
// each to its handler the moment it is read, strictly in arrival order,
// and one that writes the replies.
//
// In-order *dispatch* per connection is a protocol guarantee, not an
// implementation detail: the host pipelines enqueue commands without
// waiting for responses, naming each command's event with a host-assigned
// ID, and a later command's wait list may reference an earlier command
// whose response has not been produced yet. Arrival-order dispatch lets
// the handler register those IDs before anything executes, making the
// reference valid by construction. Whether *execution* is also serial is
// the handler's choice: a plain Handler runs inline in the connection's
// goroutine (strict FIFO, the pre-lane behavior), while an AsyncHandler
// fans requests out to its own execution lanes and completes them out of
// order, each reply leaving as its request completes; the host correlates
// them by request ID (DESIGN.md §4). Different connections always execute
// concurrently.
//
// Each accepted connection gets its own Handler from the factory, so the
// NMP can maintain per-session state (user identity, owned objects). A
// handler that also implements io.Closer is closed when its connection
// ends, giving the session a hook to release abandoned resources.
type Server struct {
	factory func() Handler

	mu     sync.Mutex
	ln     net.Listener             // guarded by mu
	conns  map[net.Conn]*connWriter // guarded by mu; each connection's reply writer
	closed bool                     // guarded by mu

	wg sync.WaitGroup
}

// NewServer returns a server creating one handler per connection.
func NewServer(factory func() Handler) *Server {
	return &Server{
		factory: factory,
		conns:   make(map[net.Conn]*connWriter),
	}
}

// NewStaticServer returns a server dispatching every connection to the same
// handler, for tests and single-session tools.
func NewStaticServer(h Handler) *Server {
	return NewServer(func() Handler { return h })
}

// Listen starts accepting on a TCP address and returns the bound address
// (useful with ":0" for tests). Serving happens on background goroutines.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", ErrClosed
	}
	s.ln = ln
	// Add under mu, after the closed check: a Close that has not yet seen
	// the listener must still wait for its loop.
	s.wg.Add(1)
	s.mu.Unlock()

	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		// A refusal means Close won the race; the next Accept fails.
		_ = s.ServeConn(conn)
	}
}

// ServeConn registers conn and serves requests from it on goroutines of
// its own. The in-memory network uses this directly with its connection
// ends. A closed server refuses: it closes conn and returns ErrClosed.
func (s *Server) ServeConn(conn net.Conn) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	w := new(connWriter)
	w.init(conn)
	s.conns[conn] = w
	// Counted under mu: once the closed check passed, Close's Wait must
	// cover this connection's reader and writer and its handler's Close.
	s.wg.Add(2)
	s.mu.Unlock()

	go s.serve(conn, w, s.factory())
	return nil
}

// serve reads conn's frames and dispatches each the moment it is read, on
// one goroutine, until the connection ends; the replies' writer, w, runs on
// another. Dispatch is registration only — an AsyncHandler files the
// request with its execution lane and returns (DESIGN.md §4) — so the loop
// is back at the socket at once: that registration never blocks is what
// keeps the socket drained. An envelope that does not parse poisons the
// connection's framing: the loop drops the connection and whatever was
// sent behind it. The writer is killed after the handler's Close; a reply
// completed after that gives back what it borrowed unwritten.
func (s *Server) serve(conn net.Conn, w *connWriter, handler Handler) {
	defer s.wg.Done()
	r := newFrameReader(conn)
	go func() {
		defer s.wg.Done()
		w.run(nil) // a failed write is the read loop's to notice
	}()
	defer func() {
		freeFrameReader(r)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		if closer, ok := handler.(interface{ Close() error }); ok {
			// Session cleanup failures have no caller to report to.
			_ = closer.Close()
		}
		w.mu.Lock()
		w.kill()
		w.mu.Unlock()
	}()
	d := newDispatcher(w, handler)
	for {
		f, err := protocol.ReadFramePooled(r)
		if err != nil {
			return
		}
		if err := d.dispatch(f); err != nil {
			return
		}
	}
}

// replyTo is where one request's response goes: frame is a plain request's
// own, and env and idx an envelope member's slot.
type replyTo struct {
	frame *protocol.Frame
	env   *envelope
	idx   int
}

// envelope is what the replies to one request envelope share: each
// request's ID and op, the count of unanswered ones, and frame, the
// request envelope whose body the requests and their replies view, which
// rides the reply that brings the count to zero. dones[i] is slot i's
// completion, made the first time the record has an i-th slot and kept
// with the record, so dispatching a member allocates nothing. w is the
// writer of the connection the record serves now.
type envelope struct {
	slots     []slot
	remaining int
	frame     *protocol.Frame
	dones     []func(protocol.Message, error)
	w         *connWriter
}

// slot is an envelope member's request ID and op.
type slot struct {
	reqID uint64
	op    protocol.Op
}

// envelopes recycles envelope records, with their slots' dones.
var envelopes recycle.Pool[envelope]

// envelope returns a record for request envelope f, whose requests are
// subs, with a done for each slot.
func (w *connWriter) envelope(f *protocol.Frame, subs []protocol.Frame) *envelope {
	env := envelopes.Get()
	env.remaining, env.frame, env.w = len(subs), f, w
	for _, sub := range subs {
		env.slots = append(env.slots, slot{sub.ReqID, sub.Op})
	}
	for i := len(env.dones); i < len(subs); i++ {
		to := replyTo{env: env, idx: i}
		env.dones = append(env.dones, func(resp protocol.Message, err error) { to.env.w.complete(to, resp, err) })
	}
	return env
}

// complete sends one finished request's reply, which carries the request
// frame it may view until it is written: a plain request's own, or for
// the last answered member of an envelope the envelope's. A plain
// request's reply on an idle connection is written on the calling
// goroutine, so a serial round trip pays no hand-off to the writer; every
// other reply is queued, so replies that complete together leave packed.
func (w *connWriter) complete(to replyTo, resp protocol.Message, err error) {
	env := to.env
	var out protocol.Outgoing
	if env == nil {
		out = reply(to.frame.ReqID, to.frame.Op, resp, err)
		out.Borrows = to.frame
	} else {
		// The slot was set before the request was dispatched, and the
		// record is recycled only after this completion has counted
		// itself, so reading it needs no lock.
		s := env.slots[to.idx]
		out = reply(s.reqID, s.op, resp, err)
	}
	w.mu.Lock()
	w.waitForRoom()
	// A failed write is the read loop's to notice.
	if env == nil && w.writeIdle(out, nil) {
		w.mu.Unlock()
		return
	}
	var recycled *envelope
	if env != nil {
		// Counted under the lock, in queue order: the reply that carries
		// the body is queued behind every mate's.
		if env.remaining--; env.remaining == 0 {
			out.Borrows, recycled = env.frame, env
		}
	}
	ok := w.add(out)
	w.mu.Unlock()
	if !ok {
		giveBack(&out)
	}
	if recycled != nil {
		recycled.slots, recycled.frame, recycled.w = recycled.slots[:0], nil, nil
		envelopes.Put(recycled)
	}
}

// dispatcher hands one connection's frames to its handler. An
// AsyncHandler takes ownership of each request's execution and completes
// it through the connection's writer from its own lanes; a plain Handler
// is wrapped to execute inline, preserving the strict per-connection FIFO
// of the pre-lane runtime.
type dispatcher struct {
	w     *connWriter
	async AsyncHandler
	subs  []protocol.Frame // reused for each envelope's requests
}

func newDispatcher(w *connWriter, handler Handler) *dispatcher {
	async, ok := handler.(AsyncHandler)
	if !ok {
		async = inline{handler}
	}
	return &dispatcher{w: w, async: async}
}

// inline runs a plain Handler's calls as they are dispatched.
type inline struct{ Handler }

// HandleCallAsync implements AsyncHandler.
func (h inline) HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error)) {
	done(h.HandleCall(op, body))
}

// dispatch hands f's requests to the handler. A Batch envelope is
// unpacked in place, in envelope order: its requests are views of its
// body and share an envelope record, whose count of unanswered requests
// decides which reply releases the body, and each is dispatched with its
// slot's done. A plain request's done is made for it. The error is an
// envelope that does not parse.
func (d *dispatcher) dispatch(f *protocol.Frame) error {
	if f.Kind != protocol.FrameBatch {
		d.async.HandleCallAsync(f.Op, f.Body, func(resp protocol.Message, err error) {
			d.w.complete(replyTo{frame: f}, resp, err)
		})
		return nil
	}
	var err error
	if d.subs, err = protocol.UnpackBatch(d.subs[:0], f); err != nil {
		return err
	}
	env := d.w.envelope(f, d.subs)
	for i, sub := range d.subs {
		d.async.HandleCallAsync(sub.Op, sub.Body, env.dones[i])
	}
	clear(d.subs) // the reused array must not keep the body reachable
	return nil
}

// reply packages one request's outcome as its response message.
func reply(reqID uint64, op protocol.Op, resp protocol.Message, err error) protocol.Outgoing {
	if err != nil {
		var re *protocol.RemoteError
		code := uint32(1)
		if errors.As(err, &re) {
			code = re.Code
		}
		// The host rebuilds a RemoteError around the message, with the op
		// and the code, so a RemoteError ships its message alone.
		msg := err.Error()
		if re, ok := err.(*protocol.RemoteError); ok {
			msg = re.Message
		}
		return protocol.NewOutgoing(protocol.FrameResponse, reqID, protocol.OpError,
			&protocol.ErrorResp{Code: code, Message: msg})
	}
	return protocol.NewOutgoing(protocol.FrameResponse, reqID, op, resp)
}

// Close stops accepting, closes every connection and waits for in-flight
// handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}
