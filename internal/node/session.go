package node

import (
	"errors"
	"slices"
	"sync"

	"github.com/haocl-project/haocl/internal/clc"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/vtime"
)

// Session is the per-connection handler: it parses each forwarded API call,
// executes it, and packages the response (paper §III-D: the daemon
// "receives the commands from the workload scheduler along with additional
// information such as user ID, device ID, shared flag ... and parses them
// for compilation and execution").
//
// Dispatch is split into two stages (DESIGN.md §4). The *registration*
// stage runs in the transport's per-connection dispatch goroutine, strictly
// in wire-arrival order: it parses the command, claims its host-assigned
// completion event, resolves the target queue, and routes the command to a
// *lane*. Lanes — one per target queue, plus a control lane for everything
// that has no queue — execute concurrently, so a multi-device node runs its
// queues in parallel instead of single-file. Cross-queue dependencies are
// real synchronization edges: a wait-list lookup blocks until the
// referenced event's command has completed on its own lane.
type Session struct {
	node *Node

	mu     sync.Mutex
	userID string // guarded by mu
	// objects are the contexts, queues, buffers, programs and kernels this
	// connection created, by ID (see objects.go); Close drops them.
	objects map[uint64]any // guarded by mu
	// events are session-local because their IDs are host-assigned: the
	// pipelining host names each command's completion event up front so a
	// later command's wait list can reference it before the response
	// exists, and those counters are only unique per connection. Entries
	// are created at registration (claimed) or by a wait-list lookup that
	// ran ahead of the creating command (unclaimed placeholder).
	events map[uint64]*eventObj // guarded by mu
	// synthEventID assigns IDs for requests that carry none (direct
	// session drivers and tests); the high range keeps them clear of
	// host-assigned counters.
	synthEventID uint64 // guarded by mu
	// peers is the cluster address book learned from the host's Hello
	// (name → listen address), consulted when PushRange commands dial
	// sibling nodes.
	peers map[string]string // guarded by mu
	// epoch is the host's membership generation from the last Hello; a
	// repeat Hello with a higher epoch signals a membership change and
	// resets the peer pool and parked push rendezvous.
	epoch uint64 // guarded by mu

	// peerMu guards the lazy-dialed pool of connections to sibling nodes
	// and the peersClosed latch; see peerClient.
	peerMu      sync.Mutex
	peerConns   map[string]*peerConn // guarded by peerMu
	peersClosed bool                 // guarded by peerMu

	laneMu    sync.Mutex
	lanes     map[uint64]*lane // guarded by laneMu
	lanesDead bool             // guarded by laneMu
	laneWG    sync.WaitGroup

	// closedCh unblocks event waiters when the session tears down, so a
	// lane draining on Close can never hang on a dependency whose creating
	// command was lost with the connection.
	closedCh  chan struct{}
	closeOnce sync.Once
}

func newSession(n *Node) *Session {
	return &Session{
		node:     n,
		closedCh: make(chan struct{}),
	}
}

// controlLane is the lane key for ops that target no queue.
const controlLane uint64 = 0

// synthBase is the first synthetic ID, for events and objects alike: the
// node mints IDs from there for requests that carry none, and
// host-assigned IDs must stay below it.
const synthBase = uint64(1) << 62

// errShuttingDown refuses a request that arrives once the session has
// started to close.
var errShuttingDown = remoteErr(protocol.CodeBadRequest, "session is shutting down")

// lane is one in-order execution stream. The registration stage appends
// jobs; a dedicated worker goroutine runs them one at a time, so commands
// for one queue still execute in arrival order while different lanes
// proceed concurrently. The queue is unbounded on purpose: a bounded lane
// would stall the registration stage when full, and a stalled registration
// stage can deadlock a cross-lane wait whose creating command is still
// behind it (backpressure remains at the transport's frame channel and the
// host's own flow control).
type lane struct {
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []laneJob // guarded by mu
	closed bool      // guarded by mu
}

// laneJob is one registered command and where its outcome goes. It sits
// in the lane's queue by value: handing a command to its lane allocates
// nothing.
type laneJob struct {
	cmd  command
	done func(protocol.Message, error)
}

func newLane() *lane {
	l := &lane{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// push appends one job, reporting false if the lane is closed.
func (l *lane) push(job laneJob) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.jobs = append(l.jobs, job)
	l.cond.Signal()
	return true
}

// close stops the lane accepting jobs; the worker drains what is queued.
func (l *lane) close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// take waits until jobs are queued and takes all of them, leaving drained
// — the array of the previous batch, emptied — as the queue to fill next,
// so a steady stream reuses two arrays and push never reallocates. ok is
// false once the lane is closed and drained.
func (l *lane) take(drained []laneJob) (batch []laneJob, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.jobs) == 0 && !l.closed {
		l.cond.Wait()
	}
	if len(l.jobs) == 0 {
		return nil, false
	}
	batch, l.jobs = l.jobs, drained
	return batch, true
}

// run is the lane worker: it executes queued jobs in order and exits once
// the lane is closed and drained.
func (l *lane) run() {
	var batch []laneJob
	for {
		var ok bool
		if batch, ok = l.take(batch[:0]); !ok {
			return
		}
		for i := range batch {
			job := batch[i]
			// Clear the slot before running the job: the array is reused,
			// and a completed job still pins its request — a whole frame
			// body, for a bulk write — and the buffers it resolved.
			batch[i] = laneJob{}
			job.done(job.cmd.exec())
			if r, ok := job.cmd.(recycler); ok {
				r.recycle()
			}
		}
	}
}

// submit routes one job to its lane, starting the lane worker lazily.
func (s *Session) submit(key uint64, job laneJob) bool {
	s.laneMu.Lock()
	if s.lanesDead {
		s.laneMu.Unlock()
		return false
	}
	if s.lanes == nil {
		s.lanes = make(map[uint64]*lane)
	}
	ln := s.lanes[key]
	if ln == nil {
		ln = newLane()
		s.lanes[key] = ln
		s.laneWG.Add(1)
		go func() {
			defer s.laneWG.Done()
			ln.run()
		}()
	}
	s.laneMu.Unlock()
	return ln.push(job)
}

// registerEvent claims the completion event for one command, under the
// host-assigned ID or a synthesized one when the request carried none. It
// runs in the registration stage, in wire-arrival order, which is what
// makes a later command's wait on the ID valid before this command has
// executed. A wait-list lookup that ran ahead (concurrent direct drivers)
// may already have left an unclaimed placeholder; claiming adopts it, so
// its waiters resolve when this command completes.
func (s *Session) registerEvent(id uint64) (*eventObj, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == 0 {
		s.synthEventID++
		id = synthBase + s.synthEventID
	} else if id >= synthBase {
		// A host counter can never legitimately reach the synthetic range;
		// letting it through would silently collide with node-assigned IDs.
		return nil, remoteErr(protocol.CodeBadRequest,
			"host-assigned event ID %d lands in the reserved synthetic range", id)
	}
	if s.events == nil {
		s.events = make(map[uint64]*eventObj)
	}
	e := s.events[id]
	if e == nil {
		e = newEvent(id)
		s.events[id] = e
	} else if e.claimed {
		return nil, remoteErr(protocol.CodeBadRequest, "duplicate event ID %d", id)
	}
	e.claimed = true
	return e, nil
}

// resolveWaits resolves a command's wait list to event records. It runs
// in the registration stage, which matters for releases: a waiter holds
// its dependencies' records from registration on, so an event Release
// arriving behind it on the wire (fire-and-forget teardown) can drop the
// table entry without orphaning the waiter. IDs outside the valid range
// are rejected up front — a zero or negative ID would otherwise wrap
// through the uint64 cast and surface as a misleading "unknown event".
//
// An ID with no record yet becomes an unclaimed placeholder the waiter
// blocks on: the creating command may legitimately still be ahead in
// another driver's registration. The flip side is that waiting on an ID
// nothing will ever claim — e.g. an event the host already released —
// parks the lane until session close; distinguishing "future" from
// "never" would take an unbounded tombstone table, and waiting on a
// released event is undefined in OpenCL too. The records are appended to
// events, the command's own storage.
func (s *Session) resolveWaits(events []*eventObj, ids []int64) ([]*eventObj, error) {
	for _, id := range ids {
		if id <= 0 {
			return nil, remoteErr(protocol.CodeBadRequest, "invalid wait-list event ID %d", id)
		}
		s.mu.Lock()
		if s.events == nil {
			s.events = make(map[uint64]*eventObj)
		}
		e := s.events[uint64(id)]
		if e == nil {
			e = newEvent(uint64(id))
			s.events[uint64(id)] = e
		}
		s.mu.Unlock()
		events = append(events, e)
	}
	return events, nil
}

// awaitDeadline returns the latest completion instant among the resolved
// dependencies. Events whose commands are still executing on other lanes
// (or not yet registered, for concurrent direct drivers) block until they
// complete — the cross-queue synchronization edge that replaces the old
// FIFO assumption that every referenced event had already run. A failed
// dependency fails the waiter.
func (s *Session) awaitDeadline(events []*eventObj) (vtime.Time, error) {
	var deadline vtime.Time
	for _, e := range events {
		if wake := e.doneCh(); wake != nil {
			select {
			case <-wake:
			case <-s.closedCh:
				return 0, remoteErr(protocol.CodeBadRequest,
					"session closed while waiting for event %d", e.resp.EventID)
			}
		}
		if e.err != nil {
			return 0, remoteErr(errCode(e.err), "wait event %d: %v", e.resp.EventID, e.err)
		}
		if end := vtime.Time(e.resp.Profile.End); end > deadline {
			deadline = end
		}
	}
	return deadline, nil
}

// errCode extracts a protocol code from an error, defaulting to 1.
func errCode(err error) uint32 {
	var re *protocol.RemoteError
	if errors.As(err, &re) {
		return re.Code
	}
	return 1
}

// failCommand marks a command's completion event failed — waiters observe
// the failure instead of hanging — and passes the error through.
func (s *Session) failCommand(ev *eventObj, err error) error {
	ev.fail(err)
	return err
}

// checkRange validates the byte range [off, off+n) against a buffer of
// size bytes. The comparison never computes off+n: the host now issues
// ranged delta-migration commands with arbitrary offsets, and an
// adversarial off near MaxInt64 would wrap the sum negative and slip past
// a naive bound check.
func checkRange(what string, off, n, size int64) error {
	if off < 0 || n < 0 || off > size || n > size-off {
		return remoteErr(protocol.CodeBadRequest,
			"%s range at offset %d of %d bytes out of bounds for buffer of %d bytes",
			what, off, n, size)
	}
	return nil
}

// HandleCall implements transport.Handler for direct session drivers
// (tests, tools): it submits through HandleCallAsync and waits for the
// response, so a direct call takes the transport's one path — including
// a wait on an ID nothing has registered, which parks until the command
// that claims it runs or the session closes.
func (s *Session) HandleCall(op protocol.Op, body []byte) (protocol.Message, error) {
	var (
		resp protocol.Message
		err  error
	)
	done := make(chan struct{})
	s.HandleCallAsync(op, body, func(m protocol.Message, e error) {
		resp, err = m, e
		close(done)
	})
	<-done
	return resp, err
}

// HandleCallAsync implements transport.AsyncHandler: the registration
// stage runs here, in the transport's arrival-order dispatch goroutine,
// and execution is handed to the command's lane.
func (s *Session) HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error)) {
	key, cmd, err := s.prepare(op, body)
	if err != nil {
		done(nil, err)
		return
	}
	if !s.submit(key, laneJob{cmd: cmd, done: done}) {
		done(nil, errShuttingDown)
	}
}

// command is one registered request, ready for its lane: exec runs it and
// returns the response. It holds the decoded message, every object the
// message names and, itself or in its completion event, the response, and
// belongs to the request alone.
type command interface {
	exec() (protocol.Message, error)
}

// recycler is a pooled command: a write, copy or launch. Its response is
// its event's (queueCmd.completed), which outlives it, so nothing needs
// the command once done has taken the response, and lane.run recycles it
// then. A read answers with a response of its own, which an envelope
// holds until its last member is answered; push and await commands take
// part in the rendezvous hand-over (peer.go). Neither is pooled. A command
// whose registration fails is left to the collector.
type recycler interface{ recycle() }

var (
	writeCmds  = sync.Pool{New: func() any { return new(writeCmd) }}
	copyCmds   = sync.Pool{New: func() any { return new(copyCmd) }}
	kernelCmds = sync.Pool{New: func() any { return new(kernelCmd) }}
)

// recycledID is what a recycled command's event and queue IDs read: a use
// after recycle names an event and a queue no host issued, and shows as a
// wrong reply.
const recycledID = ^uint64(0)

// retire is the tripwire a pooled command whose event ID reads eventID
// passes on its way back to its pool: under the race detector, recycling
// a command twice panics.
func retire(eventID uint64) {
	if raceEnabled && eventID == recycledID {
		panic("node: command recycled twice")
	}
}

func (c *writeCmd) recycle() {
	retire(c.req.EventID)
	*c = writeCmd{req: protocol.WriteBufferReq{QueueID: recycledID, EventID: recycledID}}
	writeCmds.Put(c)
}

func (c *copyCmd) recycle() {
	retire(c.req.EventID)
	*c = copyCmd{req: protocol.CopyBufferReq{QueueID: recycledID, EventID: recycledID}}
	copyCmds.Put(c)
}

func (c *kernelCmd) recycle() {
	retire(c.req.EventID)
	*c = kernelCmd{req: protocol.EnqueueKernelReq{QueueID: recycledID, EventID: recycledID}}
	kernelCmds.Put(c)
}

// queueCmd is what every enqueue command carries: the session, the target
// queue, the completion event claimed at registration (which holds the
// response) and the wait list as decoded (in waitIDs) and resolved (in
// waitArr), both inline unless it is unusually long.
type queueCmd struct {
	s       *Session
	q       *queueObj
	ev      *eventObj
	waits   []*eventObj
	waitArr [4]*eventObj
	waitIDs [4]int64
}

// register claims the command's completion event and resolves its target
// queue — the core of the registration stage for enqueue ops. The event is
// claimed first so that any later registration or execution failure can
// fail it: a pipelined waiter behind a doomed command then observes the
// failure instead of hanging on a placeholder.
func (c *queueCmd) register(s *Session, queueID, eventID uint64) error {
	ev, err := s.registerEvent(eventID)
	if err != nil {
		return err
	}
	c.s, c.ev = s, ev
	if c.q, err = lookup[*queueObj](s, "queue", queueID); err != nil {
		return s.failCommand(ev, err)
	}
	return nil
}

// resolve finishes an enqueue command's registration: err is the outcome
// of resolving its other objects, and the wait list is resolved last. Any
// failure fails the command's event.
func (c *queueCmd) resolve(err error, waitIDs []int64) error {
	if err == nil {
		c.waits, err = c.s.resolveWaits(c.waitArr[:0], waitIDs)
	}
	if err != nil {
		return c.s.failCommand(c.ev, err)
	}
	return nil
}

// completed publishes the command's profile: to waiters through its event,
// to the host through the response.
func (c *queueCmd) completed(prof protocol.Profile) (protocol.Message, error) {
	c.ev.complete(prof)
	return &c.ev.resp, nil
}

type (
	writeCmd struct {
		queueCmd
		req protocol.WriteBufferReq
		buf *bufferObj
	}
	readCmd struct {
		queueCmd
		req  protocol.ReadBufferReq
		buf  *bufferObj
		data protocol.ReadBufferResp
	}
	copyCmd struct {
		queueCmd
		req      protocol.CopyBufferReq
		src, dst *bufferObj
	}
	kernelCmd struct {
		queueCmd
		req protocol.EnqueueKernelReq
		k   *kernelObj
		// wire backs the decoded wire args and argArr the launch args
		// built from them, for up to 8 arguments; a longer list gets
		// slices of its own.
		wire   [8]protocol.KernelArg
		args   []kernel.Arg
		argArr [8]kernel.Arg
		// dims backs the decoded NDRange (global, then local) and ndrange
		// its conversion in exec, for the 3+3 dimensions a launch can
		// have; a hostile longer one gets fresh slices and is refused.
		dims    [6]int64
		ndrange [6]int
	}
	pushCmd struct {
		queueCmd
		req protocol.PushRangeReq
		buf *bufferObj
	}
	awaitCmd struct {
		queueCmd
		req protocol.AwaitPushReq
		buf *bufferObj
	}
	// finishCmd rides the queue's lane: by lane order it executes after
	// every previously arrived command on the queue, which is exactly the
	// drain it reports.
	finishCmd struct{ q *queueObj }
	// controlCmd is an op that targets no queue, parsed and run on the
	// control lane.
	controlCmd struct {
		s    *Session
		op   protocol.Op
		body []byte
	}
	// settledCmd is a request the registration stage already ran (a
	// Release, a create): the lane only delivers its outcome, in arrival
	// order.
	settledCmd struct {
		resp protocol.Message
		err  error
	}
)

func (c *finishCmd) exec() (protocol.Message, error) {
	c.q.execMu.Lock()
	now := c.q.clock.Now()
	c.q.execMu.Unlock()
	return &protocol.FinishQueueResp{SimTime: int64(now)}, nil
}

func (c *controlCmd) exec() (protocol.Message, error) { return c.s.handleControl(c.op, c.body) }

func (c *settledCmd) exec() (protocol.Message, error) { return c.resp, c.err }

// prepare is the registration stage for one command: it parses the body,
// claims the command's completion event, resolves every object the command
// touches (queue, buffers, kernel, wait-list events), and returns the lane
// key plus the command to execute there. Resolving objects here — not in
// the lane — is what makes fire-and-forget releases sound: a command
// registered before a Release arrived holds references and keeps executing,
// while one registered after deterministically sees the object gone.
// Ops with no queue ride the control lane; Release and the creates but
// BuildProgram are special-cased to run inline (they are table mutations,
// and later-arriving commands must observe them deterministically, which
// only the arrival-ordered registration stage can guarantee: a pipelining
// host names a buffer in the write right behind its create). A build
// compiles, so it stays on the control lane; its host waits for the reply
// before naming the program.
//
// Ranged-transfer bounds are validated here too: a malformed range fails
// its event deterministically instead of occupying a lane and blocking on
// wait edges first. Buffer sizes are immutable, so registration-time
// bounds hold at execution.
func (s *Session) prepare(op protocol.Op, body []byte) (uint64, command, error) {
	switch op {
	case protocol.OpWriteBuffer:
		c := writeCmds.Get().(*writeCmd)
		c.req.WaitEvents = c.waitIDs[:0]
		if err := protocol.DecodeMessage(&c.req, body); err != nil {
			return 0, nil, err
		}
		err := c.register(s, c.req.QueueID, c.req.EventID)
		if err != nil {
			return 0, nil, err
		}
		if c.buf, err = lookup[*bufferObj](s, "buffer", c.req.BufferID); err == nil {
			err = checkRange("write", c.req.Offset, int64(len(c.req.Data)), c.buf.size)
		}
		if err = c.resolve(err, c.req.WaitEvents); err != nil {
			return 0, nil, err
		}
		return c.req.QueueID, c, nil
	case protocol.OpReadBuffer:
		c := new(readCmd)
		c.req.WaitEvents = c.waitIDs[:0]
		if err := protocol.DecodeMessage(&c.req, body); err != nil {
			return 0, nil, err
		}
		err := c.register(s, c.req.QueueID, c.req.EventID)
		if err != nil {
			return 0, nil, err
		}
		if c.buf, err = lookup[*bufferObj](s, "buffer", c.req.BufferID); err == nil {
			err = checkRange("read", c.req.Offset, c.req.Size, c.buf.size)
		}
		if err = c.resolve(err, c.req.WaitEvents); err != nil {
			return 0, nil, err
		}
		return c.req.QueueID, c, nil
	case protocol.OpCopyBuffer:
		c := copyCmds.Get().(*copyCmd)
		c.req.WaitEvents = c.waitIDs[:0]
		if err := protocol.DecodeMessage(&c.req, body); err != nil {
			return 0, nil, err
		}
		err := c.register(s, c.req.QueueID, c.req.EventID)
		if err != nil {
			return 0, nil, err
		}
		if c.src, err = lookup[*bufferObj](s, "buffer", c.req.SrcID); err == nil {
			c.dst, err = lookup[*bufferObj](s, "buffer", c.req.DstID)
		}
		if err == nil {
			err = checkRange("copy source", c.req.SrcOffset, c.req.Size, c.src.size)
		}
		if err == nil {
			err = checkRange("copy destination", c.req.DstOffset, c.req.Size, c.dst.size)
		}
		if err = c.resolve(err, c.req.WaitEvents); err != nil {
			return 0, nil, err
		}
		return c.req.QueueID, c, nil
	case protocol.OpEnqueueKernel:
		c := kernelCmds.Get().(*kernelCmd)
		if err := c.prepare(s, body); err != nil {
			return 0, nil, err
		}
		return c.req.QueueID, c, nil
	case protocol.OpPushRange:
		c := new(pushCmd)
		c.req.WaitEvents = c.waitIDs[:0]
		if err := protocol.DecodeMessage(&c.req, body); err != nil {
			return 0, nil, err
		}
		err := c.register(s, c.req.QueueID, c.req.EventID)
		if err != nil {
			return 0, nil, err
		}
		if c.buf, err = lookup[*bufferObj](s, "buffer", c.req.BufferID); err == nil {
			err = checkRange("push", c.req.Offset, c.req.Size, c.buf.size)
		}
		// The peer connection is NOT resolved here: dialing is lazy and may
		// block, and the registration stage must stay non-blocking. A dial
		// failure surfaces in the lane as this command's sticky error.
		if err = c.resolve(err, c.req.WaitEvents); err != nil {
			return 0, nil, err
		}
		return c.req.QueueID, c, nil
	case protocol.OpAwaitPush:
		c := new(awaitCmd)
		c.req.WaitEvents = c.waitIDs[:0]
		if err := protocol.DecodeMessage(&c.req, body); err != nil {
			return 0, nil, err
		}
		err := c.register(s, c.req.QueueID, c.req.EventID)
		if err != nil {
			return 0, nil, err
		}
		if c.buf, err = lookup[*bufferObj](s, "buffer", c.req.BufferID); err == nil {
			err = checkRange("await-push", c.req.Offset, c.req.Size, c.buf.size)
		}
		if err = c.resolve(err, c.req.WaitEvents); err != nil {
			return 0, nil, err
		}
		return c.req.QueueID, c, nil
	case protocol.OpFinishQueue:
		var req protocol.FinishQueueReq
		if err := protocol.DecodeMessage(&req, body); err != nil {
			return 0, nil, err
		}
		q, err := lookup[*queueObj](s, "queue", req.QueueID)
		if err != nil {
			return 0, nil, err
		}
		return req.QueueID, &finishCmd{q: q}, nil
	case protocol.OpRelease, protocol.OpCreateContext, protocol.OpCreateQueue,
		protocol.OpCreateBuffer, protocol.OpCreateKernel:
		// Inline: see the doc comment above.
		resp, err := s.handleControl(op, body)
		return controlLane, &settledCmd{resp: resp, err: err}, nil
	default:
		return controlLane, &controlCmd{s: s, op: op, body: body}, nil
	}
}

// handleControl dispatches the non-queue ops: the control lane's work, and
// the table mutations the registration stage runs inline (prepare).
func (s *Session) handleControl(op protocol.Op, body []byte) (protocol.Message, error) {
	switch op {
	case protocol.OpHello:
		return s.handleHello(body)
	case protocol.OpGetDeviceInfos:
		return s.handleGetDeviceInfos(body)
	case protocol.OpCreateContext:
		return s.handleCreateContext(body)
	case protocol.OpCreateQueue:
		return s.handleCreateQueue(body)
	case protocol.OpCreateBuffer:
		return s.handleCreateBuffer(body)
	case protocol.OpBuildProgram:
		return s.handleBuildProgram(body)
	case protocol.OpCreateKernel:
		return s.handleCreateKernel(body)
	case protocol.OpRelease:
		return s.handleRelease(body)
	case protocol.OpQueryEvent:
		return s.handleQueryEvent(body)
	case protocol.OpPeerPush:
		return s.handlePeerPush(body)
	case protocol.OpCancelPush:
		return s.handleCancelPush(body)
	case protocol.OpNodeStatus:
		return &protocol.NodeStatusResp{Devices: s.node.Status()}, nil
	case protocol.OpShutdown:
		s.node.shutdown()
		return &protocol.EmptyResp{}, nil
	default:
		return nil, remoteErr(protocol.CodeUnsupported, "unsupported op %s", op)
	}
}

// Close implements the optional transport session-cleanup hook: lanes are
// drained (outstanding commands finish or fail fast through the closed
// channel), then every object the session still holds is dropped, and its
// queues give back their device-user counts, so a host that disconnects
// uncleanly leaves nothing behind and frees its exclusive devices.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		// Unblock wait-list waiters first: a lane draining on Close must
		// never hang on a dependency that died with the connection.
		close(s.closedCh)
		s.laneMu.Lock()
		s.lanesDead = true
		lanes := make([]*lane, 0, len(s.lanes))
		for _, ln := range s.lanes {
			lanes = append(lanes, ln)
		}
		s.laneMu.Unlock()
		for _, ln := range lanes {
			ln.close()
		}
		s.laneWG.Wait()

		// Lanes are drained; no command can touch the peer pool anymore.
		s.closePeers()

		s.mu.Lock()
		objects := s.objects
		s.objects = nil
		s.mu.Unlock()
		for _, obj := range objects {
			if q, ok := obj.(*queueObj); ok {
				s.dropQueueUser(q)
			}
		}
	})
	return nil
}

func (s *Session) user() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.userID == "" {
		return "anonymous"
	}
	return s.userID
}

func (s *Session) handleHello(body []byte) (protocol.Message, error) {
	var req protocol.HelloReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	// One wire version: a host speaking any other is refused, not
	// negotiated down.
	if req.WireVersion != protocol.Version {
		return nil, remoteErr(protocol.CodeUnsupported,
			"wire version %d unsupported: node %q speaks version %d",
			req.WireVersion, s.node.name, protocol.Version)
	}
	// Learn the cluster address book for peer dialing. Our own entry is
	// dropped: a node never pushes to itself.
	var peers map[string]string
	if len(req.Peers) > 0 {
		peers = make(map[string]string, len(req.Peers))
		for _, p := range req.Peers {
			if p.Name != s.node.name {
				peers[p.Name] = p.Addr
			}
		}
	}
	s.mu.Lock()
	prevEpoch := s.epoch
	s.userID = req.UserID
	if peers != nil {
		s.peers = peers
	}
	if req.Epoch > s.epoch {
		s.epoch = req.Epoch
	}
	s.mu.Unlock()
	// A repeat Hello with a bumped epoch is a membership change: pooled
	// peer connections may point at dead incarnations (and sticky dial
	// failures at now-restarted peers), and any parked push rendezvous
	// lost its counterpart — the host re-plans all of it with fresh
	// tokens after this call returns.
	if prevEpoch != 0 && req.Epoch > prevEpoch {
		s.resetPeers()
		s.node.rdv.reset(remoteErr(protocol.CodeNodeLost,
			"node %q: membership changed (epoch %d)", s.node.name, req.Epoch))
	}
	return &protocol.HelloResp{
		NodeName:    s.node.name,
		Devices:     s.node.DeviceInfos(0),
		WireVersion: protocol.Version,
		BootID:      s.node.bootID,
	}, nil
}

func (s *Session) handleGetDeviceInfos(body []byte) (protocol.Message, error) {
	var req protocol.GetDeviceInfosReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	return &protocol.GetDeviceInfosResp{Devices: s.node.DeviceInfos(req.TypeMask)}, nil
}

func (s *Session) handleCreateContext(body []byte) (protocol.Message, error) {
	var req protocol.CreateContextReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	if len(req.DeviceIDs) == 0 {
		return nil, remoteErr(protocol.CodeBadRequest, "context needs at least one device")
	}
	devs := make([]uint32, 0, len(req.DeviceIDs))
	for _, id := range req.DeviceIDs {
		if _, _, err := s.node.deviceByID(uint32(id)); err != nil {
			return nil, err
		}
		devs = append(devs, uint32(id))
	}
	return objectResp(s.put(req.ID, &contextObj{
		devices:   devs,
		sessionID: req.SessionID,
		tenant:    req.Tenant,
	}))
}

func (s *Session) handleCreateQueue(body []byte) (protocol.Message, error) {
	var req protocol.CreateQueueReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	ctx, err := lookup[*contextObj](s, "context", req.ContextID)
	if err != nil {
		return nil, err
	}
	inContext := false
	for _, d := range ctx.devices {
		if d == req.DeviceID {
			inContext = true
			break
		}
	}
	if !inContext {
		return nil, remoteErr(protocol.CodeBadRequest,
			"device %d is not part of context %d", req.DeviceID, req.ContextID)
	}
	dev, stats, err := s.node.deviceByID(req.DeviceID)
	if err != nil {
		return nil, err
	}

	user := s.user()
	stats.mu.Lock()
	if !dev.Info().Shared {
		for other, cnt := range stats.users {
			if other != user && cnt > 0 {
				stats.mu.Unlock()
				return nil, remoteErr(protocol.CodeDeviceBusy,
					"device %d (%s) is exclusive and held by user %q",
					req.DeviceID, dev.Info().Name, other)
			}
		}
	}
	stats.users[user]++
	stats.mu.Unlock()

	q := &queueObj{dev: dev, stats: stats, owner: user, profiling: req.Profiling}
	id, err := s.put(req.ID, q)
	if err != nil {
		s.dropQueueUser(q)
	}
	return objectResp(id, err)
}

func (s *Session) dropQueueUser(q *queueObj) {
	q.stats.mu.Lock()
	defer q.stats.mu.Unlock()
	if n := q.stats.users[q.owner]; n <= 1 {
		delete(q.stats.users, q.owner)
	} else {
		q.stats.users[q.owner] = n - 1
	}
}

func (s *Session) handleCreateBuffer(body []byte) (protocol.Message, error) {
	var req protocol.CreateBufferReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	if _, err := lookup[*contextObj](s, "context", req.ContextID); err != nil {
		return nil, err
	}
	if req.Size <= 0 || req.Size > protocol.MaxFrameSize {
		return nil, remoteErr(protocol.CodeBadRequest, "invalid buffer size %d", req.Size)
	}
	return objectResp(s.put(req.ID, &bufferObj{size: req.Size, data: make([]byte, req.Size)}))
}

func (c *writeCmd) exec() (protocol.Message, error) {
	s, req, q, buf := c.s, &c.req, c.q, c.buf
	// Bounds were validated at registration (see prepare).
	deadline, err := s.awaitDeadline(c.waits)
	if err != nil {
		return nil, s.failCommand(c.ev, err)
	}

	modelBytes := int64(len(req.Data))
	if req.ModelBytes > 0 {
		modelBytes = req.ModelBytes
	}
	arrival := vtime.Max(vtime.Time(req.SimArrival), deadline)
	dur := q.dev.ModelTransfer(modelBytes)
	q.execMu.Lock()
	start, end := q.clock.Reserve(arrival, dur)
	buf.mu.Lock()
	copy(buf.data[req.Offset:], req.Data)
	buf.mu.Unlock()
	q.execMu.Unlock()

	q.stats.observeTransfer(modelBytes, q.dev.EnergyRate(), dur, end)
	prof := protocol.Profile{
		Queued: req.SimArrival, Submit: int64(arrival), Start: int64(start), End: int64(end),
	}
	return c.completed(prof)
}

func (c *readCmd) exec() (protocol.Message, error) {
	s, req, q, buf := c.s, &c.req, c.q, c.buf
	// Bounds were validated at registration (see prepare).
	deadline, err := s.awaitDeadline(c.waits)
	if err != nil {
		return nil, s.failCommand(c.ev, err)
	}

	modelBytes := req.Size
	if req.ModelBytes > 0 {
		modelBytes = req.ModelBytes
	}
	arrival := vtime.Max(vtime.Time(req.SimArrival), deadline)
	dur := q.dev.ModelTransfer(modelBytes)
	q.execMu.Lock()
	start, end := q.clock.Reserve(arrival, dur)
	// The response references the snapshot until its frame is written;
	// whoever writes it frees a pooled one (ReadBufferResp.Pooled).
	out, pooled := snapshotBuf(req.Size)
	buf.mu.RLock()
	copy(out, buf.data[req.Offset:req.Offset+req.Size])
	buf.mu.RUnlock()
	q.execMu.Unlock()

	q.stats.observeTransfer(modelBytes, q.dev.EnergyRate(), dur, end)
	prof := protocol.Profile{
		Queued: req.SimArrival, Submit: int64(arrival), Start: int64(start), End: int64(end),
	}
	c.ev.complete(prof)
	c.data = protocol.ReadBufferResp{Data: out, EventID: c.ev.resp.EventID, Profile: prof, Pooled: pooled}
	return &c.data, nil
}

// snapshotBuf returns n bytes to copy a buffer range into before it leaves
// the node: from the payload pool when the frame that carries the range
// will reference it instead of copying it again (protocol.ReferenceFloor) —
// the frame then owns the snapshot and its writer frees it — and freshly
// allocated, with a nil Buf, when the range is small enough to be copied
// into a frame's inline body.
func snapshotBuf(n int64) ([]byte, *protocol.Buf) {
	if n < protocol.ReferenceFloor {
		return make([]byte, n), nil
	}
	pooled := protocol.GetBuf(int(n))
	return pooled.B, pooled
}

func (c *copyCmd) exec() (protocol.Message, error) {
	s, req, q, src, dst := c.s, &c.req, c.q, c.src, c.dst
	// Bounds were validated at registration (see prepare).
	deadline, err := s.awaitDeadline(c.waits)
	if err != nil {
		return nil, s.failCommand(c.ev, err)
	}

	dur := q.dev.ModelTransfer(req.Size)
	q.execMu.Lock()
	start, end := q.clock.Reserve(deadline, dur)
	if src == dst {
		src.mu.Lock()
		copy(src.data[req.DstOffset:req.DstOffset+req.Size], src.data[req.SrcOffset:req.SrcOffset+req.Size])
		src.mu.Unlock()
	} else {
		// Lock both buffers in handle order: concurrent lanes may copy in
		// opposite directions (A→B and B→A), and unordered acquisition
		// would deadlock both lanes. The host's own event chaining avoids
		// the conflict, but the node must not rely on client behavior.
		first, second := src, dst
		if req.SrcID > req.DstID {
			first, second = dst, src
		}
		first.mu.Lock()
		//lint:ignore haoclvet/lockorder src and dst share one lock class; the handle comparison above is the deterministic tiebreak
		second.mu.Lock()
		//lint:ignore haoclvet/lockguard dst.mu is held via the handle-ordered first/second aliases locked above
		copy(dst.data[req.DstOffset:req.DstOffset+req.Size], src.data[req.SrcOffset:req.SrcOffset+req.Size])
		second.mu.Unlock()
		first.mu.Unlock()
	}
	q.execMu.Unlock()

	q.stats.observeTransfer(req.Size, q.dev.EnergyRate(), dur, end)
	prof := protocol.Profile{
		Queued: int64(deadline), Submit: int64(deadline), Start: int64(start), End: int64(end),
	}
	return c.completed(prof)
}

func (s *Session) handleBuildProgram(body []byte) (protocol.Message, error) {
	var req protocol.BuildProgramReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	ctx, err := lookup[*contextObj](s, "context", req.ContextID)
	if err != nil {
		return nil, err
	}
	// The parse is shared process-wide and read-only; what depends on this
	// context's devices — the checks and the log — is produced per build.
	prog, err := clc.Cached(req.Source)
	if err != nil {
		return nil, remoteErr(protocol.CodeBuildFailed, "build failed: %v", err)
	}
	// Build against every device in the context, concatenating per-device
	// logs as a vendor toolchain would.
	var log string
	for _, devID := range ctx.devices {
		dev, _, err := s.node.deviceByID(devID)
		if err != nil {
			return nil, err
		}
		devLog, err := dev.CheckProgram(prog)
		log += devLog
		if err != nil {
			return &protocol.BuildProgramResp{Log: log}, remoteErr(protocol.CodeBuildFailed, "%v", err)
		}
	}
	id, err := s.put(req.ID, &programObj{prog: prog, log: log, source: req.Source})
	if err != nil {
		return nil, err
	}
	return &protocol.BuildProgramResp{ProgramID: id, Log: log, Kernels: prog.KernelNames()}, nil
}

func (s *Session) handleCreateKernel(body []byte) (protocol.Message, error) {
	var req protocol.CreateKernelReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	prog, err := lookup[*programObj](s, "program", req.ProgramID)
	if err != nil {
		return nil, err
	}
	sig, ok := prog.prog.Kernel(req.Name)
	if !ok {
		return nil, remoteErr(protocol.CodeUnknownObject,
			"program %d has no kernel %q (has %v)", req.ProgramID, req.Name, prog.prog.KernelNames())
	}
	// Resolve the executable implementation from the first device; all
	// node devices share one registry.
	spec, err := s.node.devices[0].Kernels().Lookup(req.Name)
	if err != nil {
		return nil, remoteErr(protocol.CodeBuildFailed, "%v", err)
	}
	return objectResp(s.put(req.ID, &kernelObj{name: req.Name, sig: sig, spec: spec}))
}

// buildLaunchArgs validates wire arguments against the kernel's parsed
// OpenCL C signature, resolves buffer handles to backing storage and
// appends the launch args to args.
func (s *Session) buildLaunchArgs(k *kernelObj, wire []protocol.KernelArg, args []kernel.Arg) ([]kernel.Arg, error) {
	if len(wire) != len(k.sig.Params) {
		return nil, remoteErr(protocol.CodeLaunchFailed,
			"kernel %q takes %d args, got %d", k.name, len(k.sig.Params), len(wire))
	}
	args = slices.Grow(args, len(wire))[:len(wire)]
	for i, wa := range wire {
		param := k.sig.Params[i]
		switch wa.Kind {
		case protocol.ArgBuffer:
			if !param.Pointer || param.Space == clc.SpaceLocal {
				return nil, remoteErr(protocol.CodeLaunchFailed,
					"kernel %q arg %d (%s): buffer bound to non-buffer parameter", k.name, i, param.Name)
			}
			buf, err := lookup[*bufferObj](s, "buffer", wa.BufferID)
			if err != nil {
				return nil, err
			}
			//lint:ignore haoclvet/lockguard the slice header is immutable; the bytes it names are ordered by the host's wait edges and the queue's in-order lane, not buf.mu
			args[i] = kernel.BufferArg(buf.data)
		case protocol.ArgScalar:
			if param.Pointer {
				return nil, remoteErr(protocol.CodeLaunchFailed,
					"kernel %q arg %d (%s): scalar bound to pointer parameter", k.name, i, param.Name)
			}
			if want := clc.ScalarSize(param.Type); want != 0 && want != len(wa.Scalar) {
				return nil, remoteErr(protocol.CodeLaunchFailed,
					"kernel %q arg %d (%s): %s wants %d bytes, got %d",
					k.name, i, param.Name, param.Type, want, len(wa.Scalar))
			}
			args[i] = kernel.Arg{Kind: kernel.ArgScalar, Data: wa.Scalar}
		case protocol.ArgLocal:
			if param.Space != clc.SpaceLocal {
				return nil, remoteErr(protocol.CodeLaunchFailed,
					"kernel %q arg %d (%s): local memory bound to non-local parameter", k.name, i, param.Name)
			}
			args[i] = kernel.LocalArg(int(wa.LocalLen))
		default:
			return nil, remoteErr(protocol.CodeBadRequest, "unknown arg kind %d", wa.Kind)
		}
	}
	return args, nil
}

// prepare is the registration stage of a launch (see Session.prepare).
func (c *kernelCmd) prepare(s *Session, body []byte) error {
	c.req.Global, c.req.Local, c.req.WaitEvents, c.req.Args = c.dims[:0:3], c.dims[3:3], c.waitIDs[:0], c.wire[:0]
	if err := protocol.DecodeMessage(&c.req, body); err != nil {
		return err
	}
	err := c.register(s, c.req.QueueID, c.req.EventID)
	if err != nil {
		return err
	}
	if c.k, err = lookup[*kernelObj](s, "kernel", c.req.KernelID); err == nil {
		c.args, err = s.buildLaunchArgs(c.k, c.req.Args, c.argArr[:0])
	}
	return c.resolve(err, c.req.WaitEvents)
}

func (c *kernelCmd) exec() (protocol.Message, error) {
	s, req, q, ev, k, args := c.s, &c.req, c.q, c.ev, c.k, c.args
	deadline, err := s.awaitDeadline(c.waits)
	if err != nil {
		return nil, s.failCommand(ev, err)
	}

	global, local := c.ndrange[:0:3], c.ndrange[3:3]
	for _, g := range req.Global {
		global = append(global, int(g))
	}
	for _, l := range req.Local {
		local = append(local, int(l))
	}
	g3, _, err := kernel.NormalizeRange(global, local)
	if err != nil {
		return nil, s.failCommand(ev, remoteErr(protocol.CodeLaunchFailed, "%v", err))
	}

	cost := k.spec.CostOf(g3, args)
	if req.CostFlops > 0 || req.CostBytes > 0 {
		// Cost override models a paper-scale launch: occupancy derating
		// does not apply to the reduced functional NDRange, so Items is
		// left unset (full occupancy assumed at logical scale).
		cost = kernel.Cost{Flops: req.CostFlops, Bytes: req.CostBytes}
	}
	dur := q.dev.ModelKernel(cost)

	arrival := vtime.Max(vtime.Time(req.SimArrival), deadline)
	q.execMu.Lock()
	start, end := q.clock.Reserve(arrival, dur)
	execErr := q.dev.Execute(k.name, kernel.Launch{
		Global: global, Local: local, Args: args, Workers: s.node.execWorkers,
	})
	q.execMu.Unlock()
	if execErr != nil {
		return nil, s.failCommand(ev, remoteErr(protocol.CodeLaunchFailed, "kernel %q: %v", k.name, execErr))
	}

	q.stats.observeKernel(cost.Flops, cost.Bytes, dur, q.dev.EnergyRate(), end)
	prof := protocol.Profile{
		Queued: req.SimArrival, Submit: int64(arrival), Start: int64(start), End: int64(end),
	}
	return c.completed(prof)
}

func (s *Session) handleQueryEvent(body []byte) (protocol.Message, error) {
	var req protocol.QueryEventReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	s.mu.Lock()
	e := s.events[req.EventID]
	claimed := e != nil && e.claimed
	s.mu.Unlock()
	if !claimed {
		return nil, remoteErr(protocol.CodeUnknownObject, "unknown event %d", req.EventID)
	}
	if !e.isDone() {
		// The command is still executing on its lane (impossible under the
		// old FIFO, where queries could only arrive after execution).
		return &protocol.QueryEventResp{Complete: false}, nil
	}
	if e.err != nil {
		return nil, remoteErr(errCode(e.err), "event %d failed: %v", req.EventID, e.err)
	}
	return &protocol.QueryEventResp{Complete: true, Profile: e.resp.Profile}, nil
}

// handleRelease drops every object a Release names, in vector order. All
// IDs are attempted — one stale ID must not leak the rest of a teardown
// burst — and the first failure is the request's error; it names its ID.
// Events, the bulk of any burst, go under one hold of the session lock.
func (s *Session) handleRelease(body []byte) (protocol.Message, error) {
	var req protocol.ReleaseReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	var first error
	if req.Kind == protocol.ObjEvent {
		s.mu.Lock()
		for i := 0; i < req.Len(); i++ {
			id := req.At(i)
			if e, ok := s.events[id]; ok && e.claimed {
				delete(s.events, id)
			} else if first == nil {
				// Unclaimed placeholders (left by wait-list lookups) are not
				// releasable objects; double releases land here too.
				first = remoteErr(protocol.CodeUnknownObject, "release: unknown event %d", id)
			}
		}
		s.mu.Unlock()
	} else {
		for i := 0; i < req.Len(); i++ {
			if err := s.releaseObject(req.Kind, req.At(i)); err != nil && first == nil {
				first = err
			}
		}
	}
	if first != nil {
		return nil, first
	}
	return &protocol.EmptyResp{}, nil
}

// closeLane retires one queue's lane after the queue is released: the
// worker drains the jobs that were registered before the release, then
// exits. The control lane is never retired — it serves the whole session.
func (s *Session) closeLane(key uint64) {
	if key == controlLane {
		return
	}
	s.laneMu.Lock()
	ln := s.lanes[key]
	delete(s.lanes, key)
	s.laneMu.Unlock()
	if ln != nil {
		ln.close()
	}
}
