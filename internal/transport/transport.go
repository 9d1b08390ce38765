// Package transport implements HaoCL's communication backbone: an
// asynchronous, length-framed message layer over which the host runtime
// talks to the Node Management Processes.
//
// The design follows paper §III-C. Each node runs an acceptor that listens
// asynchronously; every accepted connection gets a reader goroutine plus a
// dispatch worker — the Go equivalent of the Boost.Asio acceptor structure
// the paper describes. Requests from one connection are *dispatched* in
// arrival order: the host runtime pipelines commands without waiting for
// their responses, and in-order dispatch is what lets a later command
// reference the host-assigned event ID of an earlier one that has not
// produced a response yet. Whether execution is also serial is the
// handler's choice — an AsyncHandler (the node's session, with its
// per-queue dispatch lanes) completes requests out of order and the reply
// path reassembles per-envelope response batches; a plain Handler keeps
// the strict FIFO of the pre-lane runtime.
//
// The host side issues calls through Go, which ships the request and
// returns a Pending future; Call is Go followed by Wait. Any number of
// outstanding futures from any number of host goroutines are multiplexed
// over one connection via request-ID correlation, and a connection failure
// is sticky: every in-flight and subsequent future resolves to the same
// error.
//
// The client's write side coalesces from its first frame: requests queue
// to a writer goroutine that drains whatever has accumulated, packs runs of
// small frames into Batch envelopes, and ships them with one write —
// flushing whenever the queue drains, so an idle connection never waits on
// a timer. The server unpacks envelopes into the same per-connection FIFO
// dispatch (preserving the pipeline's ordering invariant) and coalesces the
// responses of each envelope symmetrically.
//
// Every message, in both directions, reaches its connection through one
// function, the connection's frameWriter, and is encoded exactly once, by
// it: small messages straight into one reused staging buffer (packed into
// an envelope when several are waiting), and a bulk message — body above
// protocol.BatchableBodyLimit — as a header in staging plus its payload in
// place, written vectored. Staging is the one copy a small or mid-size
// payload gets, a bulk one gets none, and every blob is decoded in place
// on the way in. The staging buffer comes from the payload pool and goes
// back when the connection's writer is done with it, so a short-lived
// connection does not grow one of its own; DESIGN.md §11 states who owns
// which buffer and until when.
//
// Two transports are provided: real TCP (used by cmd/haocl-node and the
// integration tests) and an in-process network of unbuffered in-memory
// connections (used by unit tests and the experiment harness, where
// spawning dozens of OS processes would only add noise).
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/haocl-project/haocl/internal/protocol"
)

// Handler processes one decoded request on the server (node) side and
// returns the response message. Returning an error sends an ErrorResp to
// the caller; the connection stays usable.
//
// body — and every message decoded from it, whose blobs are views of it —
// belongs to the handler only until it has produced its response
// (HandleCall returned, or done was invoked): the server recycles request
// envelopes and bulk request bodies after that, so a handler that wants
// the bytes for longer copies them, or, for a plain request, answers with
// a protocol.BodyKeeper, which is handed the body's pooled buffer once the
// response is written (a PeerPush deposit; DESIGN.md §11). A response, in
// turn, is encoded when it is written — for a request from an envelope,
// once the whole envelope has been answered — and it and everything it
// references must not change before then.
type Handler interface {
	HandleCall(op protocol.Op, body []byte) (protocol.Message, error)
}

// AsyncHandler is a Handler that may complete calls out of order. The
// server invokes HandleCallAsync from the connection's dispatch goroutine
// strictly in arrival order — that call is the handler's registration
// stage — and the handler routes the request to whatever internal
// execution lane it belongs to. done must be invoked exactly once per
// call, from any goroutine, with the response (or error) to ship. A plain
// request's response is written the moment it completes, never behind
// another lane's execution; requests that arrived inside one Batch
// envelope keep the symmetric response-envelope contract, so their
// responses are held and shipped together when the whole envelope has
// completed — a deliberate batching tradeoff that couples envelope-mates'
// latency (DESIGN.md §4).
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
	// fw writes every frame the client sends, from the writer goroutine
	// alone.
	fw frameWriter

	// writeMu guards the coalescer queue; the writer goroutine writes
	// without holding it.
	writeMu    sync.Mutex
	writeCh    *sync.Cond          // wakes the writer when messages are queued
	spaceCh    *sync.Cond          // wakes producers when the queue drains
	queue      []protocol.Outgoing // guarded by writeMu
	queueBytes int                 // guarded by writeMu
	sendDead   bool                // guarded by writeMu; write side failed or closed, queue abandoned

	mu      sync.Mutex
	pending map[uint64]*Pending // guarded by mu
	readErr error               // guarded by mu; sticky, latched by the first failure
	closed  bool                // guarded by mu; calls fail: set once onDown has run
	onDown  func(error)         // guarded by mu

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
		fw:      frameWriter{w: conn},
		pending: make(map[uint64]*Pending),
	}
	c.writeCh = sync.NewCond(&c.writeMu)
	c.spaceCh = sync.NewCond(&c.writeMu)
	go c.readLoop()
	go c.writeLoop()
	return c
}

// maxQueuedBytes bounds the wire bytes of the messages waiting in the
// coalescer queue, payloads included. Producers block once it is reached,
// restoring the write backpressure the blocking one-frame-per-write path
// provided naturally — without it a host pipelining bulk writes over a
// slow link could queue without bound.
const maxQueuedBytes = 8 << 20

// EnableBatching does nothing: a client coalesces from its first frame. It
// remains for the benchmark module's ladder, which still calls it.
func (c *Client) EnableBatching() {}

func (c *Client) readLoop() {
	for {
		f, err := protocol.ReadFrame(c.conn)
		if err != nil {
			c.failAll(err)
			return
		}
		if f.Kind == protocol.FrameBatch {
			subs, err := protocol.DecodeBatch(f)
			if err != nil {
				// A malformed envelope poisons the stream's framing.
				c.failAll(err)
				c.conn.Close()
				return
			}
			for _, sub := range subs {
				c.deliver(sub)
			}
			continue
		}
		c.deliver(f)
	}
}

// deliver hands one response frame to its waiting future. Responses with
// no waiter are dropped: the caller timed out or the connection is
// shutting down.
func (c *Client) deliver(f *protocol.Frame) {
	c.mu.Lock()
	p, ok := c.pending[f.ReqID]
	if ok {
		delete(c.pending, f.ReqID)
	}
	c.mu.Unlock()
	if ok {
		p.frame = f
		p.done.Done()
	}
}

// writeLoop drains the coalescer queue: it sleeps until messages are
// queued, grabs everything that accumulated while the previous write was
// in flight, and ships the whole run in one write. Flushing is purely
// drain-driven — a lone message on an idle connection goes out
// immediately; batches only form when the producer outpaces the writer,
// which is exactly when coalescing pays. The drained queue and the
// writer's spare swap places at every drain, so a steady stream reuses two
// arrays.
func (c *Client) writeLoop() {
	defer c.fw.release()
	var spare []protocol.Outgoing
	for {
		c.writeMu.Lock()
		for len(c.queue) == 0 && !c.sendDead {
			c.writeCh.Wait()
		}
		if c.sendDead {
			c.writeMu.Unlock()
			return
		}
		run := c.queue
		c.queue = spare
		c.queueBytes = 0
		c.spaceCh.Broadcast()
		c.writeMu.Unlock()
		if err := c.fw.write(run...); err != nil {
			// Queued messages are pre-validated, so this is an I/O
			// failure: the connection is gone. Close it so the read side
			// unwinds and the peer's session is released.
			c.failAll(fmt.Errorf("transport: send: %w", err))
			c.conn.Close()
			return
		}
		clear(run) // the reused array must not keep written messages reachable
		spare = run[:0]
	}
}

// frameWriter is the one function through which messages reach a
// connection: the client's coalescing writer and the server's reply path
// both write through it, so the packing policy, the one encoding of each
// message and the copy-free bulk write exist exactly once. It is not safe
// for concurrent use; each owner serializes its calls.
//
// Runs of small messages are encoded straight into one staging buffer — a
// single message as a plain frame, several as a Batch envelope — and
// shipped with one Write: the encoding is the only copy a payload of up to
// BatchableBodyLimit gets. A message with a body above BatchableBodyLimit
// is written alone with vectored I/O (writev on real sockets): its header
// and fields are encoded into staging and its payload is sent from where
// it lies. Bulk payloads amortize their own syscall, would blow up
// envelope sizes, and a staging copy would double their memory footprint.
// The staging buffer and the vector are reused from write to write. The
// staging buffer is taken from the payload pool at the first write,
// replaced by one of a larger size class when a run outgrows it, and given
// back by release once the writer is done; a write after that takes a
// fresh one.
type frameWriter struct {
	w       io.Writer
	staging *protocol.Buf // a packed run, or a bulk frame's head and tail
	vec     [3][]byte     // backing array of bufs
	bufs    net.Buffers   // a field, so WriteTo's receiver does not escape per call
}

// stage returns the staging buffer, empty, with room for n bytes.
func (fw *frameWriter) stage(n int) []byte {
	if fw.staging == nil || cap(fw.staging.B) < n {
		fw.staging.Free()
		_, size := protocol.SizeClass(n)
		fw.staging = protocol.GetBuf(size)
	}
	return fw.staging.B[:0]
}

// release gives the staging buffer back to the payload pool.
func (fw *frameWriter) release() {
	fw.staging.Free()
	fw.staging = nil
}

// write encodes and writes msgs in order. A message that borrowed its
// payload (freer) gives it back the moment it has been staged, or written
// in place.
func (fw *frameWriter) write(msgs ...protocol.Outgoing) error {
	start, runBytes := 0, 0
	for i := range msgs {
		m := &msgs[i]
		if m.Size > protocol.BatchableBodyLimit {
			if err := fw.flush(msgs[start:i]); err != nil {
				return err
			}
			if err := fw.writeBulk(m); err != nil {
				return err
			}
			start, runBytes = i+1, 0
			continue
		}
		runBytes += m.Size
		if i+1-start >= protocol.MaxBatchMessages || runBytes >= protocol.MaxBatchBytes {
			if err := fw.flush(msgs[start : i+1]); err != nil {
				return err
			}
			start, runBytes = i+1, 0
		}
	}
	return fw.flush(msgs[start:])
}

// flush ships a run of small messages as one wire unit with one Write.
func (fw *frameWriter) flush(run []protocol.Outgoing) error {
	if len(run) == 0 {
		return nil
	}
	out := fw.stage(protocol.StagedSize(run))
	if len(run) == 1 {
		out = protocol.AppendOutgoing(out, &run[0])
	} else {
		out = protocol.AppendOutgoingBatch(out, run)
	}
	for i := range run {
		free(run[i].Msg)
	}
	_, err := fw.w.Write(out)
	return err
}

// freer is a message that borrows its payload from an owner until it is
// on the wire — a node's pooled read snapshot (protocol.ReadBufferResp), a
// host's pooled write record — and gives it back when freed. A message a
// failed connection drops is never freed: what it borrowed is left to the
// collector.
type freer interface{ Free() }

// free gives back what m borrowed for its payload, if anything.
func free(m protocol.Message) {
	if f, ok := m.(freer); ok {
		f.Free()
	}
}

// writeBulk writes one bulk message without copying its payload.
func (fw *frameWriter) writeBulk(m *protocol.Outgoing) error {
	if m.Size > protocol.MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", protocol.ErrFrameTooBig, m.Size)
	}
	// A head and tail fit in ReferenceFloor bytes but for an unusual
	// message, whose encoding grows into memory the collector takes.
	out, split, payload := protocol.AppendOutgoingHead(fw.stage(protocol.ReferenceFloor), m)
	vec := append(fw.vec[:0], out[:split])
	if payload != nil {
		vec = append(vec, payload)
	}
	if split < len(out) {
		vec = append(vec, out[split:])
	}
	fw.bufs = vec
	_, err := fw.bufs.WriteTo(fw.w)
	fw.vec = [3][]byte{} // WriteTo clears what it consumed; after an error, drop the rest
	free(m.Msg)
	return err
}

// killWrites abandons the write side; queued messages die with the
// connection (their futures fail through failAll's sticky error).
func (c *Client) killWrites() {
	c.writeMu.Lock()
	c.sendDead = true
	c.queue = nil
	c.queueBytes = 0
	c.writeCh.Broadcast()
	c.spaceCh.Broadcast()
	c.writeMu.Unlock()
}

// failAll fails the connection with err, once: the first failure does the
// work, a later one (the other loop noticing, Close after a crash) finds
// the sticky error latched and has nothing to add.
//
// It publishes in one order: the sticky error is latched, the OnDown
// callback runs, and only then does any call fail — on the send side
// (closed, sendDead) as on the receive side (the pending futures). Whoever
// sees a call fail must be able to observe the state the callback
// established: the host marks the node dead there, which is what makes the
// failure classify as node loss and be recovered from instead of escaping
// to the tenant.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.readErr != nil {
		c.mu.Unlock()
		return
	}
	c.readErr = err
	down := c.onDown
	c.mu.Unlock()
	// Outside the lock: the callback typically re-enters the client or
	// kicks off recovery machinery.
	if down != nil {
		down(err)
	}
	c.mu.Lock()
	c.closed = true
	pending := c.pending
	c.pending = make(map[uint64]*Pending)
	c.mu.Unlock()
	// The write side dies with the connection: without this, a client
	// whose peer vanished would park its writer goroutine forever unless
	// the caller remembered to Close.
	c.killWrites()
	for _, p := range pending {
		p.done.Done() // with no frame: Wait reports the sticky error
	}
}

// OnDown registers a callback invoked exactly once, from the goroutine
// that detects the failure, when the connection dies (read error, send
// error, or Close) and before any call reports that failure. The callback
// receives the sticky connection error. Registering after the connection
// already died invokes the callback immediately.
func (c *Client) OnDown(fn func(error)) {
	c.mu.Lock()
	if err := c.readErr; err != nil {
		c.mu.Unlock()
		fn(err)
		return
	}
	c.onDown = fn
	c.mu.Unlock()
}

// Pending is one in-flight call: a future that resolves when the matching
// response frame arrives, when the request could not be sent, or when the
// connection dies (all in-flight futures then fail with the same sticky
// connection error). Wait is safe to call from any goroutine, any number
// of times; the first call blocks and every call returns the same result.
type Pending struct {
	c    *Client
	op   protocol.Op
	resp protocol.Message

	// done is released exactly once by whoever removes the call from the
	// client's pending table: deliver, after setting frame, or failAll,
	// leaving it nil. A WaitGroup rather than a channel so that the future
	// is one allocation.
	done  sync.WaitGroup
	frame *protocol.Frame

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
// on: the writer frees it once it is staged or written, and a connection
// that dies first drops it unfreed, so the caller must not touch it again.
//
// haoclvet:wire
func (c *Client) Go(req protocol.Message, resp protocol.Message) *Pending {
	p := new(Pending)
	c.Start(p, req, resp)
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
	p.c, p.op, p.resp = c, req.Op(), resp
	p.done.Add(1)
	id := c.nextID.Add(1)

	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		p.settle(err)
		return
	}
	c.pending[id] = p
	c.mu.Unlock()

	out := protocol.NewOutgoing(protocol.FrameRequest, id, req.Op(), req)
	if out.Size > protocol.MaxFrameSize {
		// Reject before queueing so an unsendable message fails only its
		// own call — on the coalescing path a late size error would be
		// connection-fatal.
		c.forget(id)
		p.settle(fmt.Errorf("send %s: %w: %d bytes", req.Op(), protocol.ErrFrameTooBig, out.Size))
		return
	}
	c.writeMu.Lock()
	for c.queueBytes >= maxQueuedBytes && !c.sendDead {
		c.spaceCh.Wait()
	}
	if c.sendDead {
		c.writeMu.Unlock()
		c.forget(id)
		p.settle(fmt.Errorf("send %s: %w", req.Op(), c.sticky()))
		return
	}
	c.queue = append(c.queue, out)
	// Count the wire size, not just the body: zero-body control messages
	// (status polls, shutdown) must still hit the cap, or a producer
	// outpacing a stalled writer queues without bound.
	c.queueBytes += out.WireSize()
	c.writeCh.Signal()
	c.writeMu.Unlock()
}

// forget drops a registered pending entry after a send-side failure.
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// sticky reports the connection's sticky error, defaulting to ErrClosed.
func (c *Client) sticky() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return ErrClosed
}

// settle resolves the future before Wait ever ran (send-side failures).
func (p *Pending) settle(err error) {
	p.once.Do(func() { p.err = err })
}

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
		// response frame, and the envelope body behind it, must not.
		f := p.frame
		p.frame = nil
		if f == nil {
			p.c.mu.Lock()
			err := p.c.readErr
			p.c.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			p.err = fmt.Errorf("call %s: %w", p.op, err)
			return
		}
		if f.Op == protocol.OpError {
			var er protocol.ErrorResp
			if derr := protocol.DecodeMessage(&er, f.Body); derr != nil {
				p.err = derr
				return
			}
			p.err = &protocol.RemoteError{Op: p.op, Code: er.Code, Message: er.Message}
			return
		}
		if p.resp != nil {
			p.err = protocol.DecodeMessage(p.resp, f.Body)
			p.resp = nil // nor must what was decoded into it
		}
	})
	return p.err
}

// Call sends req and blocks until the matching response arrives, decoding
// it into resp: Go followed by Wait. Like Wait, its error is raw and needs
// classification before feeding recovery decisions.
//
// haoclvet:errclass-source
// haoclvet:wire
func (c *Client) Call(req protocol.Message, resp protocol.Message) error {
	return c.Go(req, resp).Wait()
}

// Close tears the connection down; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.failAll(ErrClosed)
	return c.conn.Close()
}

// Server is the node side of the backbone: an acceptor plus, per
// connection, a reader goroutine and a dispatch worker that hands the
// connection's requests to its handler strictly in arrival order.
//
// In-order *dispatch* per connection is a protocol guarantee, not an
// implementation detail: the host pipelines enqueue commands without
// waiting for responses, naming each command's event with a host-assigned
// ID, and a later command's wait list may reference an earlier command
// whose response has not been produced yet. Arrival-order dispatch lets
// the handler register those IDs before anything executes, making the
// reference valid by construction. Whether *execution* is also serial is
// the handler's choice: a plain Handler runs inline in the dispatch
// goroutine (strict FIFO, the pre-lane behavior), while an AsyncHandler
// fans requests out to its own execution lanes and completes them out of
// order — the reply path reassembles per-envelope response batches from
// whatever order completions arrive in (DESIGN.md §4). Different
// connections always execute concurrently.
//
// Each accepted connection gets its own Handler from the factory, so the
// NMP can maintain per-session state (user identity, owned objects). A
// handler that also implements io.Closer is closed when its connection
// ends, giving the session a hook to release abandoned resources.
type Server struct {
	factory func() Handler

	mu     sync.Mutex
	ln     net.Listener          // guarded by mu
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu

	wg sync.WaitGroup
}

// NewServer returns a server creating one handler per connection.
func NewServer(factory func() Handler) *Server {
	return &Server{
		factory: factory,
		conns:   make(map[net.Conn]struct{}),
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

// ServeConn registers conn and serves requests from it on background
// goroutines. The in-memory network uses this directly with its connection
// ends. A closed server refuses: it closes conn and returns ErrClosed.
func (s *Server) ServeConn(conn net.Conn) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	s.conns[conn] = struct{}{}
	// Counted under mu: once the closed check passed, Close's Wait must
	// cover this connection's goroutines and its handler's Close.
	s.wg.Add(2)
	s.mu.Unlock()

	handler := s.factory()
	// The reader keeps draining the socket while the handler executes, so a
	// pipelining host can stream frames into the queue without waiting for
	// earlier commands to finish; the dispatch loop unpacks each envelope
	// as it takes it. Envelope and bulk request bodies come from the
	// payload pool, and the reply writer releases each one once its last
	// request has been answered.
	frames := make(chan *protocol.Frame, 128)
	go func() {
		defer s.wg.Done()
		defer close(frames)
		for {
			f, err := protocol.ReadFramePooled(conn)
			if err != nil {
				return
			}
			frames <- f
		}
	}()
	go func() {
		defer s.wg.Done()
		w := &replyWriter{fw: frameWriter{w: conn}}
		defer func() {
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
			if closer, ok := handler.(interface{ Close() error }); ok {
				// Session cleanup failures have no caller to report to.
				_ = closer.Close()
			}
			w.release()
		}()
		s.dispatchLoop(conn, w, handler, frames)
	}()
	return nil
}

// replyTo is where one request's response goes: frame is a plain request's
// own, and env and idx an envelope member's slot.
type replyTo struct {
	frame *protocol.Frame
	env   *respEnvelope
	idx   int
}

// respEnvelope collects the responses of one request envelope. Lanes may
// complete an envelope's requests in any order; the envelope ships as one
// coalesced unit when the last response lands, with each response in its
// request's position. replies holds each request's ID and op from the
// moment it is unpacked, and its response message from the moment it is
// answered; frame is the request envelope, whose body the requests are
// views of. Once the last response is written, the record is cleared and
// goes back to its connection's reply writer for the next envelope.
//
// dones[i] is slot i's completion, the done its request is dispatched
// with. It is made the first time the record has an i-th slot and kept
// with the record from envelope to envelope, so dispatching an envelope's
// request allocates nothing. w is the reply writer of the connection the
// record serves now.
type respEnvelope struct {
	replies   []protocol.Outgoing
	remaining int
	frame     *protocol.Frame
	dones     []func(protocol.Message, error)
	w         *replyWriter
}

// maxSpareEnvelopes bounds the cleared envelope records a connection keeps
// for reuse: enough for the envelopes a steady stream has in flight, few
// enough that a burst's records do not outlive it. A record past the bound
// goes to spareEnvelopes.
const maxSpareEnvelopes = 8

// spareEnvelopes holds cleared envelope records beyond their connections'
// spares, for any connection, until the collector empties it: a node that
// registers a whole round ahead of its lanes has more envelopes in flight
// than a connection keeps, and a record from here comes with its slots'
// dones.
var spareEnvelopes = sync.Pool{New: func() any { return new(respEnvelope) }}

// replyWriter serializes one connection's response writes. Plain requests
// answer with a plain frame the moment they complete — a response never
// waits behind another lane's execution — while requests from a Batch
// envelope are held, as messages, until the whole envelope has completed
// and then written as one coalesced run (bulk responses inside it still
// travel alone, and so does a failure, the moment it happens). Both go
// through the connection's frameWriter, the same packing and
// vectored-write function the client side uses. Out-of-order
// completion across envelopes is fine: the client correlates responses by
// request ID.
//
// A request's frame is released once its response has been written — for
// an envelope, once every response it carries has: the transport took the
// body from the pool, so the transport gives it back, never the handler,
// which may be handed the same body many times by a direct caller. The one
// exception is a plain request answered with a protocol.BodyKeeper, which
// takes the buffer over instead.
type replyWriter struct {
	mu sync.Mutex
	fw frameWriter // guarded by mu
	// spare holds envelope records whose responses have all been written,
	// cleared, for the dispatch loop to reuse.
	spare []*respEnvelope // guarded by mu
}

// release gives the staging buffer back once the connection's handler has
// closed; a lane that answers later takes a fresh one.
func (w *replyWriter) release() {
	w.mu.Lock()
	w.fw.release()
	w.mu.Unlock()
}

// envelope returns the record for request envelope f, whose requests are
// subs: a spare one when the connection has one, else one from
// spareEnvelopes, with a done for each slot.
func (w *replyWriter) envelope(f *protocol.Frame, subs []protocol.Frame) *respEnvelope {
	var env *respEnvelope
	w.mu.Lock()
	if n := len(w.spare); n > 0 {
		env = w.spare[n-1]
		w.spare[n-1] = nil
		w.spare = w.spare[:n-1]
	}
	w.mu.Unlock()
	if env == nil {
		env = spareEnvelopes.Get().(*respEnvelope)
	}
	env.remaining, env.frame, env.w = len(subs), f, w
	env.replies = slices.Grow(env.replies, len(subs))
	for _, sub := range subs {
		env.replies = append(env.replies, protocol.Outgoing{Kind: protocol.FrameResponse, ReqID: sub.ReqID, Op: sub.Op})
	}
	for i := len(env.dones); i < len(subs); i++ {
		to := replyTo{env: env, idx: i}
		env.dones = append(env.dones, func(resp protocol.Message, err error) { to.env.w.complete(to, resp, err) })
	}
	return env
}

// complete delivers one finished request's response. Write failures mean
// the peer vanished; the read loop notices and cleans the connection up,
// so the errors need no second handling.
func (w *replyWriter) complete(to replyTo, resp protocol.Message, err error) {
	if to.env == nil {
		out := reply(to.frame.ReqID, to.frame.Op, resp, err)
		w.mu.Lock()
		_ = w.fw.write(out)
		w.mu.Unlock()
		if k, ok := resp.(protocol.BodyKeeper); ok && err == nil {
			k.KeepBody(to.frame.Detach())
			return
		}
		to.frame.Release()
		return
	}
	// The slot's ID and op were set before the request was dispatched, and
	// only this completion writes the slot again, so reading them needs no
	// lock.
	env := to.env
	slot := &env.replies[to.idx]
	out := reply(slot.ReqID, slot.Op, resp, err)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		// A failure is answered at once, alone: the host acts on it — a
		// failed push is cancelled at its consumer — and the envelope's
		// other requests may be waiting for exactly that. Its slot is left
		// empty.
		_ = w.fw.write(out)
		out = protocol.Outgoing{}
	}
	*slot = out
	if env.remaining--; env.remaining == 0 {
		_ = w.fw.write(slices.DeleteFunc(env.replies, answeredAlone)...)
		env.frame.Release()
		// No response, nor the request body, may stay reachable from a
		// spare record.
		clear(env.replies)
		env.replies, env.frame = env.replies[:0], nil
		if len(w.spare) < maxSpareEnvelopes {
			w.spare = append(w.spare, env)
		} else {
			env.w = nil
			spareEnvelopes.Put(env)
		}
	}
}

// answeredAlone reports an envelope slot whose failure was written on its
// own.
func answeredAlone(o protocol.Outgoing) bool { return o.Kind == 0 }

// dispatchLoop hands the connection's requests to the handler strictly in
// arrival order (dispatcher). An envelope that does not parse poisons the
// connection's framing: the loop closes the connection and drops whatever
// was read behind it.
func (s *Server) dispatchLoop(conn net.Conn, w *replyWriter, handler Handler, frames <-chan *protocol.Frame) {
	d := newDispatcher(w, handler)
	for f := range frames {
		if err := d.dispatch(f); err != nil {
			conn.Close()
			for range frames {
			}
			return
		}
	}
}

// dispatcher hands one connection's frames to its handler. An
// AsyncHandler takes ownership of each request's execution and completes
// it through the reply writer from its own lanes; a plain Handler executes
// inline, preserving the strict per-connection FIFO of the pre-lane
// runtime.
type dispatcher struct {
	w       *replyWriter
	handler Handler
	async   AsyncHandler     // handler, when it is one
	subs    []protocol.Frame // reused for each envelope's requests
}

func newDispatcher(w *replyWriter, handler Handler) *dispatcher {
	d := &dispatcher{w: w, handler: handler}
	d.async, _ = handler.(AsyncHandler)
	return d
}

// dispatch hands f's requests to the handler. A Batch envelope is
// unpacked in place, in envelope order: its requests are views of its
// body and share a respEnvelope, so their responses can be coalesced back
// into one response envelope no matter which order they complete in, and
// each is dispatched with its slot's done. A plain request's done is made
// for it. The error is an envelope that does not parse.
func (d *dispatcher) dispatch(f *protocol.Frame) error {
	if f.Kind != protocol.FrameBatch {
		if d.async == nil {
			resp, err := d.handler.HandleCall(f.Op, f.Body)
			d.w.complete(replyTo{frame: f}, resp, err)
			return nil
		}
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
		if d.async == nil {
			env.dones[i](d.handler.HandleCall(sub.Op, sub.Body))
		} else {
			d.async.HandleCallAsync(sub.Op, sub.Body, env.dones[i])
		}
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
		return protocol.NewOutgoing(protocol.FrameResponse, reqID, protocol.OpError,
			&protocol.ErrorResp{Code: code, Message: err.Error()})
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
