package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/haocl-project/haocl/internal/clc"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/recycle"
	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/transport"
	"github.com/haocl-project/haocl/internal/vtime"
)

// Event is the host-side handle for an enqueued command. Commands are
// pipelined over the backbone: the enqueue call returns once the request
// is on the wire, carrying a host-assigned event ID that later commands
// may wait on immediately, and the event's profile resolves lazily when
// the node's response arrives. Wait, Profile and End are synchronization
// points; a command that failed remotely surfaces its error there and
// marks its queue's sticky error (see Queue.Finish).
type Event struct {
	dev      *DeviceRef
	remoteID uint64

	// Pipelined events carry the issuing queue, the in-flight future and
	// the response it decodes into (see cmd.send), both inside the event so
	// that they cost no allocation of their own. Events born
	// resolved (reads, which must block for their data anyway) never
	// resolve: their call is waited on where it is issued.
	queue    *Queue
	call     transport.Pending
	resp     protocol.EventResp
	isKernel bool

	// waits backs the command's wire wait list (cmd.begin, cmd.after): a
	// list of up to len(waits) IDs allocates nothing.
	waits [4]int64

	// trace is the command's tracing record; nil when tracing was off at
	// issue time. The span tree is emitted in resolve, where the node's
	// profile is first known.
	trace *evTrace

	// gen is the recovery generation the event was issued under. After a
	// node loss, recovery bumps the runtime generation: older events are
	// never referenced on the wire again (their node-side records died with
	// the old cluster state) and their crash-induced failures are absolved
	// (the log replay re-established their effects).
	gen uint64

	once    sync.Once
	profile protocol.Profile
	err     error

	// resolved is set once resolve has finished, or at birth for an event
	// born resolved. cmd.send drops resolved events from the queue's
	// in-flight list without taking the event's once.
	resolved atomic.Bool

	// released marks the remote event object freed (fire-and-forget). A
	// released event must not appear on the wire again: its node-side
	// record is gone, so a wait referencing it could never resolve.
	released atomic.Bool
}

// resolve consumes the command's response exactly once: on success it
// publishes the profile into the runtime metrics and monitor, on failure
// it records the error here and as the queue's sticky error.
func (e *Event) resolve() {
	if e.resolved.Load() {
		return
	}
	e.once.Do(func() {
		defer e.resolved.Store(true)
		if err := e.call.Wait(); err != nil {
			// OnDown marks the handle dead before any pending future
			// unblocks, so a failure observed while the node is dead is
			// crash-induced — tag it retriable (recovery replays the work).
			if !e.dev.node.Alive() {
				err = &nodeLostError{cause: err}
			}
			e.err = fmt.Errorf("core: command on %s: %w", e.dev.key, err)
			// A create this command depends on may have failed first; its
			// error is the one the queue reports.
			e.queue.settleCreates()
			e.queue.fail(e.err)
			return
		}
		e.profile = e.resp.Profile
		e.queue.ctx.sess.observeProfile(e.dev.key, e.profile, e.isKernel)
		e.trace.emit(e.remoteID, e.profile)
	})
}

// Wait blocks until the command completed and reports its error, if any
// (clWaitForEvents). A crash-induced failure triggers recovery: the dead
// node's work is re-placed on survivors and the command log replayed, after
// which the failure is absolved — the event's effect was re-established, so
// the caller observes success. Genuine command failures report as before.
func (e *Event) Wait() error {
	err := e.waitErr()
	if err == nil || e.queue == nil {
		return err
	}
	rt := e.queue.ctx.rt
	if rt.shouldRecover(err) {
		if rerr := e.queue.ctx.sess.recover(); rerr != nil {
			return rerr
		}
	}
	if isNodeLost(err) && e.gen < rt.gen.Load() {
		return nil // recovery replayed the command's effect
	}
	return err
}

// waitErr resolves the event and reports its raw error without triggering
// recovery. Internal pipeline machinery (push watchers, recovery's own
// drain) must use this: recovering from inside recovery would deadlock on
// recoverMu.
func (e *Event) waitErr() error {
	e.resolve()
	return e.err
}

// Profile returns the event's virtual-time profiling info, waiting for the
// command's response if it is still in flight (clGetEventProfilingInfo).
// A failed command reports a zero profile; use Wait to observe the error.
func (e *Event) Profile() protocol.Profile {
	e.resolve()
	return e.profile
}

// End returns the event's virtual completion instant, waiting for the
// response if necessary.
func (e *Event) End() vtime.Time {
	e.resolve()
	return vtime.Time(e.profile.End)
}

// Device returns the device the command ran on (nil for floor events).
func (e *Event) Device() *DeviceRef { return e.dev }

// FloorEvent returns a pure virtual-time floor: an event born resolved at
// instant t, bound to no device, queue or session. Waiting on it costs
// nothing and folds into a command's arrival instant like any cross-node
// dependency. Open-loop load generators use it to model job arrival
// instants without wire traffic.
func FloorEvent(t vtime.Time) *Event {
	e := &Event{profile: protocol.Profile{Start: int64(t), End: int64(t)}}
	e.resolved.Store(true)
	return e
}

// Release frees the remote event object (clReleaseEvent). Long-running
// host programs release events they no longer wait on so node object
// tables stay bounded. The release rides the same ordered connection as
// the command that creates the event, so it needs no synchronization —
// and it is fire-and-forget: teardown releases objects in storms, so the
// ID is held back and ships in one message with the releases next to it
// (up to 256), no later than the session's next message to that node — a
// command, a Finish — or its next Flush or Close (Session.releaseAsync has
// the rule). The acknowledgement is drained at the next Flush (or Close),
// where a failure surfaces as the session's sticky release error.
//
// rt is unused: an event knows its session through its queue. The
// parameter stays because the repository benchmark (benchmark/api.go)
// calls Release(rt).
func (e *Event) Release(rt *Runtime) error {
	e.released.Store(true)
	if e.dev == nil {
		return nil // floor events own no remote record
	}
	e.queue.ctx.sess.releaseAsync(e.dev.node, protocol.ObjEvent, e.remoteID)
	return nil
}

// splitWaits partitions a wait list into remote event IDs local to node,
// appended to local (backed by the issuing event's inline array), and a
// virtual-time floor for events that completed on other nodes: a remote
// node cannot wait on another node's event object, so cross-node
// dependencies are folded into the command's arrival instant. Events from
// an older recovery generation never take the local-ID path — their
// node-side records died with the old cluster state, so they fold into the
// floor like cross-node events (a resolved event's floor is exact). Waiting
// on another session's event is refused with ErrCrossSession: event
// visibility is the namespace boundary.
func (s *Session) splitWaits(node *NodeHandle, waits []*Event, local []int64) (_ []int64, floor vtime.Time, err error) {
	gen := s.rt.gen.Load()
	for _, ev := range waits {
		if ev == nil {
			continue
		}
		if ev.queue != nil && ev.queue.ctx.sess != s {
			return nil, 0, fmt.Errorf("core: wait on event %d from tenant %q: %w",
				ev.remoteID, ev.queue.ctx.sess.tenant, ErrCrossSession)
		}
		if ev.dev == nil {
			// A floor event carries only its instant.
			if end := ev.End(); end > floor {
				floor = end
			}
			continue
		}
		if ev.dev.node == node && ev.gen == gen {
			if ev.released.Load() {
				// The node-side record is gone; a wire wait on it would
				// never resolve, so fail fast.
				return nil, 0, fmt.Errorf("core: wait list references released event %d", ev.remoteID)
			}
			local = append(local, int64(ev.remoteID))
		} else if end := ev.End(); end > floor {
			floor = end
		}
	}
	return local, floor, nil
}

// cmd is one queued command on its way to the wire: the queue it rides and
// that queue's device, snapshotted once, the event standing for its
// completion, its wire wait list and the virtual-time floor of the waits
// that cannot go on the wire. Every queued command — the enqueues, the
// migration relays and push pairs, the broadcast hops — is issued in the
// same steps: begin, after (once per replica the command waits on), charge
// (if its request crosses the host NIC) and send.
type cmd struct {
	q     *Queue
	dev   *DeviceRef
	ev    *Event
	waits []int64
	floor vtime.Time
	// wireStart and arrival are the request's host NIC booking: when it
	// enters the link and when it arrives. Zero for a device-side copy.
	wireStart, arrival vtime.Time
}

// begin starts a command on q that waits on waits and on the heads of
// the replicas rbs. A queue that latched a failure refuses it; otherwise
// begin snapshots the queue's device, makes the command's event, splits
// waits into wire IDs and a floor (splitWaits) and chains the command
// behind each replica (after).
func (q *Queue) begin(waits []*Event, rbs ...*remoteBuf) (c cmd, err error) {
	q.mu.Lock()
	c.q, c.dev, err = q, q.dev, q.err
	q.mu.Unlock()
	if err != nil {
		return c, err
	}
	c.ev = &Event{dev: c.dev, queue: q}
	c.waits, c.floor, err = q.ctx.sess.splitWaits(c.dev.node, waits, c.ev.waits[:0])
	for _, rb := range rbs {
		if err == nil {
			err = c.after(rb)
		}
	}
	return c, err
}

// after chains the command behind rb's head (chainWaits).
func (c *cmd) after(rb *remoteBuf) (err error) {
	c.waits, c.floor, err = rb.chainWaits(c.waits, c.floor)
	return err
}

// charge books the command's n-byte request on the host NIC egress,
// departing no earlier than earliest and the command's floor.
func (c *cmd) charge(earliest vtime.Time, n int64) {
	c.wireStart, c.arrival = c.q.ctx.sess.chargeHost(c.q.ctx.rt.nicOut, vtime.Max(earliest, c.floor), n)
}

// record builds the command's trace record, nil when tracing is off. A
// service queue's commands trace as queue 0.
func (c *cmd) record(kind trace.Kind, bytes int64) *evTrace {
	qid := c.q.id
	if c.q.made != nil {
		qid = 0
	}
	return c.q.ctx.sess.traceCmd(kind, c.dev, qid, bytes, c.wireStart, c.arrival)
}

// send traces and issues the command, its response decoding into its
// event, and lists the event, stamped with the current recovery
// generation, in the queue's in-flight list so the synchronization points
// can drain it. Events are listed after issue, so the list is in event-ID
// order unless two goroutines enqueueing on the queue at once list them in
// the other order than they issued; drain restores it.
func (c *cmd) send(kind trace.Kind, bytes int64, req protocol.CommandReq) {
	q := c.q
	c.ev.trace = c.record(kind, bytes)
	q.ctx.sess.issue(c.ev, req, &c.ev.resp)
	c.ev.gen = q.ctx.rt.gen.Load()
	q.mu.Lock()
	q.inflight = append(pruneResolved(q.inflight), c.ev)
	q.mu.Unlock()
}

// Context is a cluster-wide OpenCL context spanning devices on any number
// of nodes. One remote context is created on each involved node.
type Context struct {
	rt      *Runtime
	sess    *Session
	id      uint64 // the object's name on every node it spans
	devices []*DeviceRef

	// mu guards the hidden service queues and the object registries
	// recovery walks to strip dead-node state.
	mu       sync.Mutex
	svcQueue map[*NodeHandle]*Queue // guarded by mu; hidden queues for buffer migration
	queues   []*Queue               // guarded by mu
	buffers  []*Buffer              // guarded by mu
	programs []*Program             // guarded by mu
}

// CreateContext builds a context over the given devices (clCreateContext)
// inside this session's namespace. Devices may live on different nodes;
// that is the point of HaoCL. The remote contexts are tagged with the
// session's identity, and every object created from the context belongs to
// this tenant alone.
func (s *Session) CreateContext(devices []*DeviceRef) (*Context, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("core: session %q is closed", s.tenant)
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("core: context needs at least one device")
	}
	ctx := &Context{
		rt:       s.rt,
		sess:     s,
		id:       s.rt.newObjectID(),
		devices:  devices,
		svcQueue: make(map[*NodeHandle]*Queue),
	}
	perNode := make(map[*NodeHandle][]int64)
	for _, d := range devices {
		perNode[d.node] = append(perNode[d.node], int64(d.info.ID))
	}
	nodes := sortedNodeKeys(perNode)
	cs := make([]nodeCreate, len(nodes))
	for i, node := range nodes {
		cs[i].node, cs[i].req = node, s.contextReq(perNode[node])
	}
	s.rt.recoverMu.RLock()
	defer s.rt.recoverMu.RUnlock()
	if node, err := s.createEach(protocol.ObjContext, ctx.id, cs); err != nil {
		return nil, fmt.Errorf("core: create context on %q: %w", node.name, err)
	}
	s.mu.Lock()
	s.contexts = append(s.contexts, ctx)
	s.mu.Unlock()
	return ctx, nil
}

// contextReq is the create of the session's context instance over one
// node's devices ids.
func (s *Session) contextReq(ids []int64) *protocol.CreateContextReq {
	return &protocol.CreateContextReq{DeviceIDs: ids, SessionID: s.id, Tenant: s.tenant}
}

// unregister drops q from the context's queue registry. Caller holds mu.
func (c *Context) unregister(q *Queue) {
	c.queues = slices.DeleteFunc(c.queues, func(r *Queue) bool { return r == q })
}

// allQueues snapshots the context's queue registry (user and service
// queues alike).
func (c *Context) allQueues() []*Queue {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Queue(nil), c.queues...)
}

// Devices returns the context's devices.
func (c *Context) Devices() []*DeviceRef { return c.devices }

// Session returns the session whose namespace the context lives in.
func (c *Context) Session() *Session { return c.sess }

// deviceOnNode finds one context device hosted by node.
func (c *Context) deviceOnNode(node *NodeHandle) (*DeviceRef, bool) {
	for _, d := range c.devices {
		if d.node == node {
			return d, true
		}
	}
	return nil, false
}

// serviceQueue returns the context's hidden migration queue on node. Its
// first use creates it there lazily, like a replica (creation): the host
// names the queue, so the push, the await or the broadcast hop behind the
// create names it at once. trigger is the command that needs the
// migration: its queue lists the create until it settles, so a refusal
// surfaces at that queue's next synchronization point. A queue whose create
// is known to have failed is replaced by a fresh one, as a user would retry
// a refused CreateQueue.
func (c *Context) serviceQueue(node *NodeHandle, trigger *cmd) (*Queue, error) {
	c.mu.Lock()
	q := c.svcQueue[node]
	if q == nil || q.made.failed() {
		if q != nil {
			c.unregister(q)
		}
		var err error
		if q, err = c.newServiceQueue(node); err != nil {
			c.mu.Unlock()
			return nil, err
		}
		c.svcQueue[node] = q
	}
	c.mu.Unlock()
	if !q.made.isSettled() {
		trigger.q.lazyOnce(q.made)
	}
	return q, nil
}

// newServiceQueue sends the create of node's service queue and registers
// the queue. The queue lists its own create, so its commands, which the
// node refuses if the create was, report the create's error.
// Caller holds mu.
func (c *Context) newServiceQueue(node *NodeHandle) (*Queue, error) {
	dev, ok := c.deviceOnNode(node)
	if !ok {
		return nil, fmt.Errorf("core: context has no device on node %q", node.name)
	}
	cr := new(creation)
	if err := cr.create(c.sess, node, c.rt.newObjectID(), c.queueReq(dev)); err != nil {
		return nil, err
	}
	q := &Queue{ctx: c, id: cr.id, dev: dev, made: cr, creates: []*creation{cr}}
	c.queues = append(c.queues, q)
	return q, nil
}

// Queue is an in-order command queue bound to one device
// (clCreateCommandQueue with profiling enabled). Enqueue operations are
// pipelined: they return without waiting for the node's response, and the
// queue's sticky error records the first command failure so it surfaces at
// the next synchronization point (Finish, or Wait on an event), matching
// OpenCL's in-order queue semantics.
type Queue struct {
	ctx *Context
	// id is the queue's name on whichever node it is bound to; a queue
	// recovery re-binds (rebindQueue) keeps it.
	id uint64
	// made is a context's hidden migration queue's lazy create
	// (serviceQueue), nil for a user queue. A service queue's commands
	// trace as queue 0.
	made *creation

	mu sync.Mutex
	// dev is the queue's binding; recovery re-points it when the node
	// dies (rebindQueue), so concurrent enqueues must snapshot it (Device,
	// begin) rather than read the field raw.
	dev *DeviceRef // guarded by mu
	// inflight lists the queue's pipelined events in issue order (see
	// cmd.send for when it is not) until they have resolved.
	inflight []*Event // guarded by mu
	// creates lists the lazy creates the queue's commands sent until a
	// synchronization point has settled them (settleCreates).
	creates []*creation // guarded by mu
	err     error       // guarded by mu; sticky: first pipelined command failure
}

// pruneResolved drops resolved events from an in-flight list about to take
// one more. The resolved prefix goes on every call, so a program that waits
// on each command keeps the list at one entry and its array in use. A full
// list is compacted in place before it grows, so events resolved behind one
// nobody waits on do not stay until the next drain; it grows anyway when
// fewer than half its slots came free, so every scan is paid for by at
// least half as many appends.
func pruneResolved(evs []*Event) []*Event {
	i := 0
	for i < len(evs) && evs[i].resolved.Load() {
		i++
	}
	clear(evs[:i])
	if i == len(evs) {
		return evs[:0]
	}
	evs = evs[i:]
	if len(evs) < cap(evs) {
		return evs
	}
	evs = slices.DeleteFunc(evs, func(e *Event) bool { return e.resolved.Load() })
	if len(evs) > cap(evs)/2 {
		evs = slices.Grow(evs, len(evs))
	}
	return evs
}

// fail records the queue's first command failure.
func (q *Queue) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
}

// stickyErr reports the queue's first failure, if any. Enqueues on a
// failed queue refuse immediately with that error.
func (q *Queue) stickyErr() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// drain resolves every pipelined command tracked on the queue so far, in
// event-ID order: resolution order decides which failure latches into the
// sticky error first, so it is the lowest-ID failure. The list is copied,
// not taken: a concurrent drain (two Finish calls, a Flush) must find the
// events too and block on their resolution, or it could return before the
// failure it should report has latched. A queue's events share one node
// binding — recovery drains before it re-binds — so the ID alone orders
// them.
func (q *Queue) drain() {
	q.settleCreates()
	q.mu.Lock()
	evs := slices.Clone(q.inflight)
	q.mu.Unlock()
	if !slices.IsSortedFunc(evs, byRemoteID) {
		slices.SortFunc(evs, byRemoteID)
	}
	for _, e := range evs {
		e.resolve()
	}
	q.mu.Lock()
	q.inflight = pruneResolved(q.inflight)
	q.mu.Unlock()
}

func byRemoteID(a, b *Event) int { return cmp.Compare(a.remoteID, b.remoteID) }

// creation is one object the host creates on a node without waiting — a
// buffer's replica, a kernel's instance, a service queue. id is the
// object's own ID (Runtime.newObjectID), the same on every node, and the
// command that needed it names it right behind the create, so the first
// use of a buffer or a kernel on a node costs no round trip. call is the
// create's future, in the object's own storage. The queue of the command
// that sent the create lists it until a synchronization point settles it
// (settleCreates).
type creation struct {
	id      uint64
	node    *NodeHandle
	call    transport.Pending
	settled atomic.Bool
}

// create sends the creation's request to node through s. A node known to
// be down is not sent anything: the create fails at once as node loss, so
// the command that needed it recovers and retries instead of being issued
// into a dead connection.
func (cr *creation) create(s *Session, node *NodeHandle, id uint64, req protocol.CreateReq) error {
	if !node.Alive() {
		return fmt.Errorf("core: %s on %q: %w", req.Op(), node.name, errNodeLost)
	}
	cr.node, cr.id = node, id
	s.create(node, id, &cr.call, req, nil)
	return nil
}

// wait blocks until the create is answered and reports its failure,
// classified: one that died with its node is node loss.
func (cr *creation) wait() error {
	err := cr.call.Wait()
	cr.settled.Store(true)
	if err != nil {
		return fmt.Errorf("core: create object %d on %q: %w", cr.id, cr.node.name, classifyNodeErr(cr.node, err))
	}
	return nil
}

func (cr *creation) isSettled() bool { return cr.settled.Load() }

// failed reports, without blocking, whether the create is known to have
// failed — refused, or died with its node. Either way the node holds no
// object to use or release.
func (cr *creation) failed() bool { return cr.call.Answered() && cr.call.Wait() != nil }

// lazy lists a create that one of the queue's commands sent.
func (q *Queue) lazy(cr *creation) {
	q.mu.Lock()
	q.creates = append(q.creates, cr)
	q.mu.Unlock()
}

// lazyOnce lists a create that one of the queue's commands relies on, once:
// every migration onto a node relies on its service queue's create until
// the create settles.
func (q *Queue) lazyOnce(cr *creation) {
	q.mu.Lock()
	if !slices.Contains(q.creates, cr) {
		q.creates = append(q.creates, cr)
	}
	q.mu.Unlock()
}

// settleCreates waits for the lazy creates the queue's commands sent and
// latches each failure as the queue's sticky error, the first one winning.
// A refused create fails every command naming its object, but the create's
// error is the cause, so it is settled before any event (drain, and an
// event's own failure in resolve) and is what the queue reports. A create
// that died with its node is node loss, recovered like any command.
func (q *Queue) settleCreates() {
	q.mu.Lock()
	if len(q.creates) == 0 {
		q.mu.Unlock()
		return
	}
	creates := slices.Clone(q.creates)
	q.mu.Unlock()
	for _, cr := range creates {
		if err := cr.wait(); err != nil {
			q.fail(err)
		}
	}
	q.mu.Lock()
	q.creates = slices.DeleteFunc(q.creates, (*creation).isSettled)
	q.mu.Unlock()
}

// sortedNodeKeys returns m's keys in node-name order. Every loop that
// issues wire traffic per node must walk this instead of the map, so the
// frame sequence — and with it every virtual-time booking — is identical
// across runs.
func sortedNodeKeys[V any](m map[*NodeHandle]V) []*NodeHandle {
	nodes := make([]*NodeHandle, 0, len(m))
	for n := range m {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].name < nodes[j].name })
	return nodes
}

// CreateQueue creates a command queue on dev.
func (c *Context) CreateQueue(dev *DeviceRef) (*Queue, error) {
	c.rt.recoverMu.RLock()
	defer c.rt.recoverMu.RUnlock()
	id := c.rt.newObjectID()
	if err := c.remoteQueue(id, dev); err != nil {
		return nil, err
	}
	q := &Queue{ctx: c, id: id, dev: dev}
	c.mu.Lock()
	c.queues = append(c.queues, q)
	c.mu.Unlock()
	return q, nil
}

// remoteQueue creates the queue id on dev's node — for a new queue, and
// for recovery's re-placement of one (rebindQueue).
func (c *Context) remoteQueue(id uint64, dev *DeviceRef) error {
	if _, ok := c.deviceOnNode(dev.node); !ok {
		return fmt.Errorf("core: device %s is not in this context", dev.key)
	}
	if err := c.sess.createWait(dev.node, id, c.queueReq(dev), nil); err != nil {
		return fmt.Errorf("core: create queue on %s: %w", dev.key, err)
	}
	return nil
}

// queueReq is the create of a profiling queue in the context on dev.
func (c *Context) queueReq(dev *DeviceRef) *protocol.CreateQueueReq {
	return &protocol.CreateQueueReq{ContextID: c.id, DeviceID: dev.info.ID, Profiling: true}
}

// Device snapshots the queue's device, its current binding. An operation
// reads it once and works against that snapshot: if recovery re-binds the
// queue mid-flight, the operation fails with a crash-classified error and
// its public wrapper retries against the new binding.
func (q *Queue) Device() *DeviceRef {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dev
}

// Finish drains the queue's pipeline and returns its virtual completion
// instant (clFinish). It is the queue's primary synchronization point: all
// in-flight responses are consumed, and the first failure of any pipelined
// command on the queue — including one whose enqueue call returned nil —
// is reported here. A crash-induced failure triggers recovery and a
// retry: node loss is retriable, only genuine command failures stick.
func (q *Queue) Finish() (vtime.Time, error) {
	return withRecovery(q.ctx.sess, q.finish)
}

// finish is the non-recovering Finish internal.
func (q *Queue) finish() (vtime.Time, error) {
	q.drain()
	if err := q.stickyErr(); err != nil {
		return 0, err
	}
	dev := q.Device()
	var resp protocol.FinishQueueResp
	if err := q.ctx.sess.call(dev.node, &protocol.FinishQueueReq{QueueID: q.id}, &resp); err != nil {
		return 0, fmt.Errorf("core: finish queue on %s: %w", dev.key, err)
	}
	t := vtime.Time(resp.SimTime)
	q.ctx.sess.observeMakespan(t)
	return t, nil
}

// Release frees the remote queue object. Like every release it is
// fire-and-forget, drained at the next Flush/Close; it rides the ordered
// connection behind the queue's in-flight commands, which keep executing
// (they resolved the queue at dispatch), but new commands enqueued after
// a Release are refused by the node.
func (q *Queue) Release() error {
	q.ctx.sess.releaseAsync(q.Device().node, protocol.ObjQueue, q.id)
	return nil
}

// remoteBuf tracks one node's replica of a buffer. valid is the set of
// byte ranges whose replica bytes hold current data — a partial write
// validates exactly the written range, an overlapping writer elsewhere
// invalidates exactly the overlap (DESIGN.md §5). head is the replica's
// chain head: the last command issued that writes the replica, or that
// reads it ahead of a later write (a copy's or a push's source). Because
// event IDs are host-assigned at issue time, a dependent command can be
// pipelined behind the head without waiting for its response.
type remoteBuf struct {
	creation
	valid mem.RangeSet
	head  *Event
}

// setHead makes ev the replica's chain head unless a later-issued command
// already is. Event IDs are assigned in wire order, so a smaller ID never
// replaces a larger one: a launch updates its written buffers after issue,
// when a concurrent writer may already have issued behind it.
func (rb *remoteBuf) setHead(ev *Event) {
	if rb.head == nil || ev.remoteID > rb.head.remoteID {
		rb.head = ev
	}
}

// Buffer is a cluster-wide memory object (clCreateBuffer). The nodes hold
// the data, in per-node replicas with range-aware write-invalidate
// coherence: writing a range on one device invalidates that range on the
// others, and using the buffer on a different node triggers an automatic
// delta migration over the backbone that moves only the stale ranges — the
// "complex inter-node data transfer schemes" of paper §III-C. The host is
// the control plane: it tracks which replica holds which range valid and
// keeps no copy of the contents. The coherence invariant: every byte range
// written since the buffer's creation (or since recovery last reset it) is
// valid on at least one replica at all times; a range never written reads
// as zeros, deterministically.
type Buffer struct {
	ctx  *Context
	id   uint64 // the name of every replica
	size int64
	// modelSize is the buffer's logical size in the timing model; it
	// defaults to size and is raised by SetModelSize when the functional
	// payload is a scaled-down stand-in for a paper-scale input.
	modelSize int64 // guarded by mu

	mu sync.Mutex
	// hostReadyAt is the virtual instant the last read's payload reached
	// the host; a later host send of this buffer departs no earlier.
	hostReadyAt vtime.Time                 // guarded by mu
	remote      map[*NodeHandle]*remoteBuf // guarded by mu
	// released is set under mu by Release; the replay reads it lock-free.
	released atomic.Bool

	// logDefs is the buffer's share of the session's command log (log.go):
	// in log order, the entries that still define some of the buffer's
	// bytes and that no kernel has pinned. logDef0 is its first backing
	// array: a buffer that never lists two costs the log no allocation.
	logDefs []*logDef  // guarded by cmdLog.mu
	logDef0 [1]*logDef // guarded by cmdLog.mu
}

// CreateBuffer allocates a buffer of the given size.
func (c *Context) CreateBuffer(size int64) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("core: invalid buffer size %d", size)
	}
	b := &Buffer{
		ctx:       c,
		id:        c.rt.newObjectID(),
		size:      size,
		modelSize: size,
		remote:    make(map[*NodeHandle]*remoteBuf),
	}
	c.mu.Lock()
	c.buffers = append(c.buffers, b)
	c.mu.Unlock()
	return b, nil
}

// Size returns the buffer's size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// SetModelSize declares the buffer's logical size for the timing model.
// All transfer charges scale by modelSize/size, so a functional 1 MiB
// stand-in for a logical 256 MiB matrix is charged as 256 MiB on the wire.
func (b *Buffer) SetModelSize(modelSize int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if modelSize > 0 {
		b.modelSize = modelSize
	}
}

// ModelSize returns the buffer's logical size.
func (b *Buffer) ModelSize() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.modelSize
}

// scaled converts an actual byte count to its logical-model equivalent.
// Caller holds b.mu.
func (b *Buffer) scaled(n int64) int64 {
	if b.modelSize == b.size {
		return n
	}
	return int64(float64(n) * float64(b.modelSize) / float64(b.size))
}

// remoteOn returns the buffer's replica on the node c runs on, allocating
// it lazily: the create is sent without waiting, ahead of c, which names
// the replica at once, and c's queue settles it (creation).
// Caller holds b.mu.
func (b *Buffer) remoteOn(c *cmd) (*remoteBuf, error) {
	if b.released.Load() {
		return nil, fmt.Errorf("core: buffer was released")
	}
	node := c.dev.node
	if rb, ok := b.remote[node]; ok {
		return rb, nil
	}
	if _, ok := b.ctx.deviceOnNode(node); !ok {
		return nil, fmt.Errorf("core: context spans no device on node %q", node.name)
	}
	rb := new(remoteBuf)
	if err := rb.create(b.ctx.sess, node, b.id, &protocol.CreateBufferReq{ContextID: b.ctx.id, Size: b.size}); err != nil {
		return nil, err
	}
	c.q.lazy(&rb.creation)
	b.remote[node] = rb
	return rb, nil
}

// Release frees the buffer's remote replicas on every node that holds one
// (clReleaseMemObject). The releases are fire-and-forget, drained at the
// next Flush/Close; commands already pipelined against a replica keep
// executing, because nodes resolve a command's objects when it is
// registered, before the release arrives behind it. What the command log
// kept to rebuild the contents is dropped too — the buffer is unusable
// afterwards.
func (b *Buffer) Release() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, node := range sortedNodeKeys(b.remote) {
		b.ctx.sess.releaseCreated(protocol.ObjBuffer, &b.remote[node].creation)
	}
	b.remote = make(map[*NodeHandle]*remoteBuf)
	b.released.Store(true)
	b.ctx.sess.log.retire(b)
	return nil
}

// hostRangeOK validates the byte range [off, off+n) against a buffer of
// size bytes without ever computing off+n: a caller-supplied offset near
// MaxInt64 would wrap the sum negative and slip past a naive bound check
// (the node applies the same overflow-safe rule at registration).
func hostRangeOK(off, n, size int64) bool {
	return off >= 0 && n >= 0 && off <= size && n <= size-off
}

// EnqueueWrite transfers data into the buffer through q's device
// (clEnqueueWriteBuffer). Exactly the written byte range is validated on
// the target replica and invalidated on every other replica; the transfer
// is charged to the host NIC model. The command is pipelined: the call
// returns once the request is on the wire, and the returned event resolves
// when the node responds. A crash-induced failure recovers and retries
// transparently.
//
// The caller may reuse data as soon as the call returns: the one private
// copy made here serves both the command log and the wire. From
// protocol.ReferenceFloor bytes on, that copy lives in a pooled write
// record, which the log and each request frame carrying it hold until they
// let go — the log when a later command supersedes the write, the buffer
// is released or the session closes, a frame once the write carrying it
// has returned — so a superseded write's memory serves a later one
// (DESIGN.md §11).
func (q *Queue) EnqueueWrite(b *Buffer, offset int64, data []byte, waits ...*Event) (*Event, error) {
	w := newWriteLog(q, b, offset, data)
	ev, err := withRecovery(q.ctx.sess, func() (*Event, error) {
		return w.enqueue(waits...)
	})
	if err != nil {
		w.Free() // never logged nor sent: enqueue fails before either
	}
	return ev, err
}

// enqueue is the non-recovering EnqueueWrite internal, issuing w through
// w.q; replay drives it directly. w.data must never change while w is
// held: the command log keeps it and the request frame references it until
// the writer goroutine has staged or written it (DESIGN.md §11). A pooled
// record's frame takes a hold of its own (heldWrite); w is logged only by
// the original command, never by a replay.
func (w *writeLog) enqueue(waits ...*Event) (*Event, error) {
	q, b, offset, data := w.q, w.b, w.off, w.data
	if b.ctx.sess != q.ctx.sess {
		return nil, fmt.Errorf("core: write to buffer of tenant %q: %w", b.ctx.sess.tenant, ErrCrossSession)
	}
	if !hostRangeOK(offset, int64(len(data)), b.size) {
		return nil, fmt.Errorf("core: write range at offset %d of %d bytes out of bounds (buffer %d bytes)",
			offset, len(data), b.size)
	}
	c, err := q.begin(waits)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()

	// Every fallible step runs before any buffer state mutates: a write
	// whose replica allocation or wait list fails must not invalidate the
	// replicas holding the range's current data.
	rb, err := b.remoteOn(&c)
	if err != nil {
		return nil, err
	}
	if err := c.after(rb); err != nil {
		return nil, err
	}
	modelBytes := b.scaled(int64(len(data)))
	c.charge(b.hostReadyAt, controlMsgBytes+modelBytes)
	h := heldWrites.Get()
	h.WriteBufferReq = protocol.WriteBufferReq{
		QueueID:    c.q.id,
		BufferID:   rb.id,
		Offset:     offset,
		Data:       data,
		SimArrival: int64(c.arrival),
		ModelBytes: modelBytes,
		WaitEvents: c.waits,
	}
	if w.holds.Hold() {
		h.w = w
	}
	c.send(trace.KindWrite, modelBytes, h)
	// A partial write onto a stale replica must NOT validate the unwritten
	// remainder — those bytes still hold old data, and reading them back
	// here would expose stale content.
	b.define(c.dev.node, rb, offset, offset+int64(len(data)), c.ev)
	// Log under b.mu so the log order matches the issue order per buffer.
	q.ctx.sess.logCommand(w)
	return c.ev, nil
}

// heldWrite is a write's request. It comes from heldWrites, belongs to
// the transport from Start on, and goes back to its pool when the
// connection's writer frees it, once the write carrying its frame has
// returned. A
// pooled write record's request holds the record until then (w). A
// request that a dead connection drops is never freed: the collector
// takes it, and the record's hold with it.
type heldWrite struct {
	protocol.WriteBufferReq
	w *writeLog // nil unless the record is pooled
}

var heldWrites recycle.Pool[heldWrite]

// Free gives back the frame's hold on its record and recycles the
// request; the connection's writer calls it.
func (h *heldWrite) Free() {
	if h.w != nil {
		h.w.Free()
	}
	*h = heldWrite{WriteBufferReq: protocol.WriteBufferReq{QueueID: recycledID, EventID: recycledID}}
	heldWrites.Put(h)
}

// launchReq is a launch's request with room for 8 wire arguments inline;
// a longer list is allocated. It comes from launchReqs and goes back when
// the connection's writer frees it, as a heldWrite does.
type launchReq struct {
	protocol.EnqueueKernelReq
	args [8]protocol.KernelArg
}

var launchReqs recycle.Pool[launchReq]

// Free recycles the request; the connection's writer calls it.
func (r *launchReq) Free() {
	*r = launchReq{EnqueueKernelReq: protocol.EnqueueKernelReq{QueueID: recycledID, EventID: recycledID}}
	launchReqs.Put(r)
}

// recycledID is what a recycled request's event and queue IDs read: a
// request encoded after it was recycled names an event ID the node
// refuses and a queue it does not know, and shows as a failed command.
// (A zero event ID would not: the node synthesizes one.)
const recycledID = ^uint64(0)

// define records at issue time (wire order is event-ID order) that node's
// replica rb now holds [lo, hi), written by ev: every other replica loses
// exactly that range, and ev becomes rb's chain head (setHead).
// Caller holds b.mu.
func (b *Buffer) define(node *NodeHandle, rb *remoteBuf, lo, hi int64, ev *Event) {
	for other, orb := range b.remote {
		if other != node {
			orb.valid.Remove(lo, hi)
		}
	}
	rb.valid.Add(lo, hi)
	rb.setHead(ev)
}

// ensureResident makes the byte range [lo, hi) of the buffer valid on the
// node c runs on, migrating its stale ranges with migrateP2P. Caller holds
// b.mu. It returns the replica; any subsequent command on the node chains
// behind its head as usual.
//
// Migration is a delta: only the Gaps of the replica's valid set within
// [lo, hi) travel, each as its own ranged command charged per-range
// through the virtual-time model, and pipelined through the context's
// hidden service queue, so the consumer command that triggered the
// migration waits on the final transfer's event ID without a round trip.
func (b *Buffer) ensureResident(c *cmd, lo, hi int64) (*remoteBuf, error) {
	rb, err := b.remoteOn(c)
	if err != nil {
		return nil, err
	}
	if gaps := rb.valid.Gaps(lo, hi); len(gaps) > 0 {
		if err := b.migrateP2P(c, rb, gaps); err != nil {
			return nil, err
		}
	}
	return rb, nil
}

// chainWaits appends the wait-list entry for the replica's chain head to
// waits (backed by the issuing event's inline array) and returns floor
// raised to what the chain imposes in virtual time. A head that was
// released has no node-side record left, so it cannot go on the wire: once
// it is known complete it drops out of the chain, its end folded into the
// floor as for a cross-node wait, and its failure, if it failed, is the
// command's. One released while still in flight is refused — nothing could
// ever resolve a wire wait on it (release events only after the buffer's
// chain has quiesced at a sync point).
func (rb *remoteBuf) chainWaits(waits []int64, floor vtime.Time) ([]int64, vtime.Time, error) {
	ev := rb.head
	switch {
	case ev == nil:
		return waits, floor, nil
	case !ev.released.Load():
		return append(waits, int64(ev.remoteID)), floor, nil
	case !ev.resolved.Load():
		return nil, 0, fmt.Errorf("core: buffer chain references released event %d still in flight (quiesce with Finish/Flush before releasing chained events)", ev.remoteID)
	case ev.err != nil:
		return nil, 0, fmt.Errorf("core: buffer chain references failed event %d: %w", ev.remoteID, ev.err)
	}
	return waits, vtime.Max(floor, ev.End()), nil
}

// EnqueueRead transfers buffer contents back to the host
// (clEnqueueReadBuffer), returning the data and the completion event. The
// read is issued through the pipeline — it rides behind any in-flight
// commands it depends on without waiting for their responses — but the
// call itself blocks until the data arrives, making it a natural
// synchronization point for the buffer's command chain.
func (q *Queue) EnqueueRead(b *Buffer, offset, size int64, waits ...*Event) ([]byte, *Event, error) {
	var ev *Event
	data, err := withRecovery(q.ctx.sess, func() (data []byte, err error) {
		data, ev, err = q.enqueueRead(b, offset, size, waits...)
		return data, err
	})
	return data, ev, err
}

// enqueueRead is the non-recovering EnqueueRead internal. Reads are not
// logged: they do not mutate contents.
func (q *Queue) enqueueRead(b *Buffer, offset, size int64, waits ...*Event) ([]byte, *Event, error) {
	if b.ctx.sess != q.ctx.sess {
		return nil, nil, fmt.Errorf("core: read from buffer of tenant %q: %w", b.ctx.sess.tenant, ErrCrossSession)
	}
	if !hostRangeOK(offset, size, b.size) {
		return nil, nil, fmt.Errorf("core: read range at offset %d of %d bytes out of bounds (buffer %d bytes)",
			offset, size, b.size)
	}
	c, err := q.begin(waits)
	if err != nil {
		return nil, nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()

	// Only the read range needs to be resident: delta migration fetches
	// and pushes exactly the stale sub-ranges.
	rb, err := b.ensureResident(&c, offset, offset+size)
	if err != nil {
		return nil, nil, err
	}
	if err := c.after(rb); err != nil {
		return nil, nil, err
	}
	modelBytes := b.scaled(size)
	c.charge(0, controlMsgBytes)

	// The read blocks for its response, so it is issued but not listed in
	// the queue's in-flight list, and its span tree is emitted here.
	var resp protocol.ReadBufferResp
	q.ctx.sess.issue(c.ev, &protocol.ReadBufferReq{
		QueueID:    c.q.id,
		BufferID:   rb.id,
		Offset:     offset,
		Size:       size,
		SimArrival: int64(c.arrival),
		ModelBytes: modelBytes,
		WaitEvents: c.waits,
	}, &resp)
	if err := c.ev.call.Wait(); err != nil {
		return nil, nil, fmt.Errorf("core: read buffer on %s: %w", c.dev.key, classifyNodeErr(c.dev.node, err))
	}
	// The payload crosses the backbone to the host, straight to the caller.
	_, hostArrival := q.ctx.sess.chargeHost(q.ctx.rt.nicIn, vtime.Time(resp.Profile.End), controlMsgBytes+modelBytes)
	if hostArrival > b.hostReadyAt {
		b.hostReadyAt = hostArrival
	}
	prof := resp.Profile
	q.ctx.sess.observeProfile(c.dev.key, prof, false)
	q.ctx.sess.observeMakespan(hostArrival)
	c.record(trace.KindRead, modelBytes).emitIn(c.ev.remoteID, prof, hostArrival)
	// The event is born resolved: the read blocked for its response. It
	// carries the issuing queue so Release and the cross-session wait check
	// can find its owner (resolve is a no-op).
	c.ev.profile, c.ev.gen = prof, q.ctx.rt.gen.Load()
	c.ev.resolved.Store(true)
	return resp.Data, c.ev, nil
}

// EnqueueCopy copies size bytes between two buffers on q's device
// (clEnqueueCopyBuffer). Both buffers are made resident on the node first;
// the copy happens device-side with no backbone traffic.
func (q *Queue) EnqueueCopy(src, dst *Buffer, srcOffset, dstOffset, size int64, waits ...*Event) (*Event, error) {
	return withRecovery(q.ctx.sess, func() (*Event, error) {
		return q.enqueueCopy(src, dst, srcOffset, dstOffset, size, waits...)
	})
}

// enqueueCopy is the non-recovering EnqueueCopy internal; replay drives it
// directly.
func (q *Queue) enqueueCopy(src, dst *Buffer, srcOffset, dstOffset, size int64, waits ...*Event) (*Event, error) {
	if src.ctx.sess != q.ctx.sess {
		return nil, fmt.Errorf("core: copy from buffer of tenant %q: %w", src.ctx.sess.tenant, ErrCrossSession)
	}
	if dst.ctx.sess != q.ctx.sess {
		return nil, fmt.Errorf("core: copy into buffer of tenant %q: %w", dst.ctx.sess.tenant, ErrCrossSession)
	}
	if !hostRangeOK(srcOffset, size, src.size) || !hostRangeOK(dstOffset, size, dst.size) {
		return nil, fmt.Errorf("core: copy range out of bounds")
	}
	if src == dst {
		return nil, fmt.Errorf("core: copy within one buffer is not supported")
	}
	c, err := q.begin(waits)
	if err != nil {
		return nil, err
	}
	node := c.dev.node

	// Lock in address order, so that two copies running A→B and B→A at once
	// cannot deadlock. Comparing addresses relies on Go's heap not moving
	// objects; it formats and allocates nothing.
	first, second := src, dst
	if uintptr(unsafe.Pointer(first)) > uintptr(unsafe.Pointer(second)) {
		first, second = second, first
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	//lint:ignore haoclvet/lockorder src and dst share one lock class; the address comparison above fixes one order between them for every copy
	second.mu.Lock()
	defer second.mu.Unlock()

	srcRB, err := src.ensureResident(&c, srcOffset, srcOffset+size)
	if err != nil {
		return nil, err
	}
	dstRB, err := dst.remoteOn(&c)
	if err != nil {
		return nil, err
	}
	// A copy carries no arrival instant, so it has nowhere to put the floor
	// a released chain event would drop into: only its own queue's order
	// keeps it behind one. A released event from another queue is refused.
	for _, rb := range [2]*remoteBuf{srcRB, dstRB} {
		if ev := rb.head; ev != nil && ev.released.Load() && ev.queue != q {
			return nil, fmt.Errorf("core: copy chained to released event %d of another queue (quiesce with Finish/Flush before releasing chained events)", ev.remoteID)
		}
	}
	// The floor goes unused: a device-side op's cross-node dependencies
	// are already folded into srcRB.
	if err := c.after(srcRB); err != nil {
		return nil, err
	}
	if err := c.after(dstRB); err != nil {
		return nil, err
	}
	c.send(trace.KindCopy, size, &protocol.CopyBufferReq{
		QueueID:    c.q.id,
		SrcID:      srcRB.id,
		DstID:      dstRB.id,
		SrcOffset:  srcOffset,
		DstOffset:  dstOffset,
		Size:       size,
		WaitEvents: c.waits,
	})
	// Anti-dependency on the source: a later writer of this replica — a
	// same-node kernel on another queue, say — must wait until the copy has
	// read it, or the copy would observe the later write's bytes (the push
	// paths chain the same way; deep pipelines, like recovery replay, hit
	// this window).
	srcRB.setHead(c.ev)
	// This node's replica is now the only valid holder of the copied
	// range; validity outside it is untouched everywhere.
	dst.define(node, dstRB, dstOffset, dstOffset+size, c.ev)
	q.ctx.sess.logCommand(&copyLog{q: q, src: src, dst: dst, srcOff: srcOffset, dstOff: dstOffset, size: size})
	return c.ev, nil
}

// Program is OpenCL program source plus its builds, one on each node of
// its context. The host parses the source locally with the same front end
// the nodes use, so arg validation and written-buffer analysis happen
// without a round trip. The parse is the process-wide one (clc.Cached),
// shared with every other program of the same source and never written.
type Program struct {
	ctx    *Context
	id     uint64 // the name of every build
	source string
	parsed *clc.Program

	mu      sync.Mutex
	log     string    // guarded by mu
	built   bool      // guarded by mu
	kernels []*Kernel // guarded by mu
}

// CreateProgram parses source and returns an unbuilt program
// (clCreateProgramWithSource).
func (c *Context) CreateProgram(source string) (*Program, error) {
	parsed, err := clc.Cached(source)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p := &Program{
		ctx:    c,
		id:     c.rt.newObjectID(),
		source: source,
		parsed: parsed,
	}
	c.mu.Lock()
	c.programs = append(c.programs, p)
	c.mu.Unlock()
	return p, nil
}

// Build compiles the program on every live node in the context
// (clBuildProgram). A node that is down gets the build when it rejoins
// (restoreOn).
func (p *Program) Build() error {
	p.ctx.rt.recoverMu.RLock()
	defer p.ctx.rt.recoverMu.RUnlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.built {
		return nil
	}
	live := make(map[*NodeHandle]bool)
	for _, d := range p.ctx.devices {
		if d.node.Alive() {
			live[d.node] = true
		}
	}
	nodes := sortedNodeKeys(live)
	cs := make([]nodeCreate, len(nodes))
	resps := make([]protocol.BuildProgramResp, len(nodes))
	for i, node := range nodes {
		cs[i].node, cs[i].req, cs[i].resp = node, p.buildReq(), &resps[i]
	}
	failed, err := p.ctx.sess.createEach(protocol.ObjProgram, p.id, cs)
	// The log is what building one node after the other would have
	// gathered: every node's up to the one that failed.
	var log strings.Builder
	for i := range cs {
		log.WriteString(resps[i].Log)
		if cs[i].node == failed {
			break
		}
	}
	p.log += log.String()
	if err != nil {
		return fmt.Errorf("core: build on %q: %w", failed.name, err)
	}
	p.built = true
	return nil
}

// buildReq is the program's build in its context.
func (p *Program) buildReq() *protocol.BuildProgramReq {
	return &protocol.BuildProgramReq{ContextID: p.ctx.id, Source: p.source}
}

// BuildLog returns the accumulated build logs.
func (p *Program) BuildLog() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log
}

// KernelNames lists kernels found in the source.
func (p *Program) KernelNames() []string { return p.parsed.KernelNames() }

// argBinding is one argument set by SetArg, pending until launch.
type argBinding struct {
	kind     protocol.ArgKind
	buf      *Buffer
	scalar   []byte
	localLen int64
}

// Kernel is one kernel instantiated from a program (clCreateKernel). Its
// remote instances are created lazily on each node it launches on.
type Kernel struct {
	prog *Program
	id   uint64 // the name of every instance
	name string
	sig  *clc.Kernel

	mu     sync.Mutex
	remote map[*NodeHandle]*creation // guarded by mu
	// args is copy-on-write: a launch takes the slice itself as its
	// snapshot and marks it shared, and SetArg binds into a copy of a
	// shared slice, never into the slice a launch holds.
	args       []argBinding // guarded by mu
	argsShared bool         // guarded by mu
	// released is set under mu by Release; the replay reads it lock-free.
	released atomic.Bool
}

// CreateKernel instantiates the named kernel.
func (p *Program) CreateKernel(name string) (*Kernel, error) {
	p.mu.Lock()
	built := p.built
	p.mu.Unlock()
	if !built {
		return nil, fmt.Errorf("core: program must be built before creating kernel %q", name)
	}
	sig, ok := p.parsed.Kernel(name)
	if !ok {
		return nil, fmt.Errorf("core: program has no kernel %q (has %v)", name, p.KernelNames())
	}
	k := &Kernel{
		prog:   p,
		id:     p.ctx.rt.newObjectID(),
		name:   name,
		sig:    sig,
		remote: make(map[*NodeHandle]*creation),
		args:   make([]argBinding, len(sig.Params)),
	}
	p.mu.Lock()
	p.kernels = append(p.kernels, k)
	p.mu.Unlock()
	return k, nil
}

// Name returns the kernel's name.
func (k *Kernel) Name() string { return k.name }

// NumArgs returns the kernel's parameter count.
func (k *Kernel) NumArgs() int { return len(k.sig.Params) }

// SetArg binds argument index to value (clSetKernelArg). Accepted values:
// *Buffer for global/constant pointer parameters, LocalSpace for local
// pointer parameters, and fixed-size scalars (int, int32, uint32, int64,
// uint64, float32, float64, []byte) for by-value parameters.
func (k *Kernel) SetArg(index int, value any) error {
	if index < 0 || index >= len(k.sig.Params) {
		return fmt.Errorf("core: kernel %q has no arg %d (takes %d)", k.name, index, len(k.sig.Params))
	}
	param := k.sig.Params[index]
	var binding argBinding
	switch v := value.(type) {
	case *Buffer:
		if !param.Pointer || param.Space == clc.SpaceLocal {
			return fmt.Errorf("core: kernel %q arg %d (%s): buffer bound to non-buffer parameter",
				k.name, index, param.Name)
		}
		binding = argBinding{kind: protocol.ArgBuffer, buf: v}
	case LocalSpace:
		if param.Space != clc.SpaceLocal {
			return fmt.Errorf("core: kernel %q arg %d (%s): local memory bound to non-local parameter",
				k.name, index, param.Name)
		}
		if v <= 0 {
			return fmt.Errorf("core: kernel %q arg %d: local size must be positive", k.name, index)
		}
		binding = argBinding{kind: protocol.ArgLocal, localLen: int64(v)}
	default:
		if param.Pointer {
			return fmt.Errorf("core: kernel %q arg %d (%s): scalar bound to pointer parameter",
				k.name, index, param.Name)
		}
		scalar := kernel.EncodeScalar(value)
		if want := clc.ScalarSize(param.Type); want != 0 && want != len(scalar) {
			return fmt.Errorf("core: kernel %q arg %d (%s): %s wants %d bytes, got %d",
				k.name, index, param.Name, param.Type, want, len(scalar))
		}
		binding = argBinding{kind: protocol.ArgScalar, scalar: scalar}
	}
	k.mu.Lock()
	if k.argsShared {
		k.args, k.argsShared = slices.Clone(k.args), false
	}
	k.args[index] = binding
	k.mu.Unlock()
	return nil
}

// LocalSpace requests n bytes of per-work-group local memory when passed to
// SetArg.
type LocalSpace int64

// remoteOn makes sure the kernel has an instance on the node c runs on,
// instantiating it lazily as Buffer.remoteOn allocates a replica.
func (k *Kernel) remoteOn(c *cmd) error {
	node := c.dev.node
	k.mu.Lock()
	if k.released.Load() {
		k.mu.Unlock()
		return fmt.Errorf("core: kernel %q was released", k.name)
	}
	if _, ok := k.remote[node]; ok {
		k.mu.Unlock()
		return nil
	}
	if _, ok := k.prog.ctx.deviceOnNode(node); !ok {
		k.mu.Unlock()
		return fmt.Errorf("core: context spans no device on node %q", node.name)
	}
	cr := new(creation)
	if err := cr.create(k.prog.ctx.sess, node, k.id, &protocol.CreateKernelReq{ProgramID: k.prog.id, Name: k.name}); err != nil {
		k.mu.Unlock()
		return err
	}
	k.remote[node] = cr
	k.mu.Unlock()
	c.q.lazy(cr) // a queue's lock is taken before a kernel's, never inside
	return nil
}

// Release frees the kernel's remote instances on every node that created
// one (clReleaseKernel), fire-and-forget like every release; the kernel is
// unusable afterwards — a later launch refuses instead of silently
// recreating the remote instances.
func (k *Kernel) Release() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, node := range sortedNodeKeys(k.remote) {
		k.prog.ctx.sess.releaseCreated(protocol.ObjKernel, k.remote[node])
	}
	k.remote = make(map[*NodeHandle]*creation)
	k.released.Store(true)
	return nil
}

// LaunchOptions tune one EnqueueKernel call.
type LaunchOptions struct {
	// CostFlops/CostBytes override the kernel's cost model, letting the
	// experiment harness model paper-scale inputs while executing
	// functionally on reduced data (DESIGN.md §1).
	CostFlops int64
	CostBytes int64
}

// EnqueueKernel launches the kernel over the NDRange on q's device
// (clEnqueueNDRangeKernel). Buffer arguments are migrated to the device's
// node as needed; written buffers (non-const global pointers in the
// kernel's signature) invalidate other replicas. The launch is pipelined:
// the call returns once the request — and any migration writes it depends
// on — are on the wire, without a round trip. A malformed NDRange is
// refused here, wrapping kernel.ErrBadNDRange, before anything is charged,
// issued or logged.
func (q *Queue) EnqueueKernel(k *Kernel, global, local []int, waits []*Event, opts *LaunchOptions) (*Event, error) {
	if _, _, err := kernel.NormalizeRange(global, local); err != nil {
		return nil, fmt.Errorf("core: launch kernel %q: %w", k.name, err)
	}
	// The launch's log entry is built once, before the retry loop: it holds
	// the argument snapshot — a SetArg racing the recovery retry must not
	// leak into the replayed launch — and the NDRange's wire form, which
	// the request shares and neither sees the caller's slices again.
	l := &kernelLog{q: q, k: k, nGlobal: uint8(len(global)), nLocal: uint8(len(local))}
	k.mu.Lock()
	l.bindings, k.argsShared = k.args, true
	k.mu.Unlock()
	for i, v := range global {
		l.dims[i] = int64(v)
	}
	for i, v := range local {
		l.dims[len(global)+i] = int64(v)
	}
	if opts != nil {
		l.opts = *opts
	}

	return withRecovery(q.ctx.sess, func() (*Event, error) {
		return q.enqueueKernelBound(l, waits)
	})
}

// enqueueKernelBound is the non-recovering EnqueueKernel internal. It
// issues the launch l records — the argument snapshot and NDRange taken by
// EnqueueKernel — and logs l itself, so replay issues exactly what was
// issued.
func (q *Queue) enqueueKernelBound(l *kernelLog, waits []*Event) (*Event, error) {
	k := l.k
	if k.prog.ctx.sess != q.ctx.sess {
		return nil, fmt.Errorf("core: launch kernel %q of tenant %q: %w",
			k.name, k.prog.ctx.sess.tenant, ErrCrossSession)
	}
	c, err := q.begin(waits)
	if err != nil {
		return nil, err
	}
	c.ev.isKernel = true
	node := c.dev.node
	if err := k.remoteOn(&c); err != nil {
		return nil, err
	}
	// A launch that fails before it is sent leaves its request to the
	// collector.
	req := launchReqs.Get()
	wireArgs := slices.Grow(req.args[:0], len(l.bindings))[:len(l.bindings)]
	var msgBytes int64 = controlMsgBytes
	var writtenArr [8]*Buffer
	written := writtenArr[:0]
	for i, bind := range l.bindings {
		param := k.sig.Params[i]
		switch bind.kind {
		case protocol.ArgBuffer:
			if bind.buf.ctx.sess != q.ctx.sess {
				return nil, fmt.Errorf("core: kernel %q arg %d: buffer of tenant %q: %w",
					k.name, i, bind.buf.ctx.sess.tenant, ErrCrossSession)
			}
			bind.buf.mu.Lock()
			// A kernel may touch any byte of its buffer arguments, so the
			// whole replica must be resident (delta migration still moves
			// only the stale ranges of it).
			rb, err := bind.buf.ensureResident(&c, 0, bind.buf.size)
			if err == nil {
				err = c.after(rb)
			}
			if err != nil {
				bind.buf.mu.Unlock()
				return nil, fmt.Errorf("core: kernel %q arg %d: %w", k.name, i, err)
			}
			wireArgs[i] = protocol.KernelArg{Kind: protocol.ArgBuffer, BufferID: rb.id}
			if param.Pointer && !param.Const && param.Space != clc.SpaceConstant {
				written = append(written, bind.buf)
			}
			bind.buf.mu.Unlock()
		case protocol.ArgScalar:
			wireArgs[i] = protocol.KernelArg{Kind: protocol.ArgScalar, Scalar: bind.scalar}
			msgBytes += int64(len(bind.scalar))
		case protocol.ArgLocal:
			wireArgs[i] = protocol.KernelArg{Kind: protocol.ArgLocal, LocalLen: bind.localLen}
		default:
			return nil, fmt.Errorf("core: kernel %q arg %d (%s) was never set", k.name, i, param.Name)
		}
	}

	c.charge(0, msgBytes)
	req.EnqueueKernelReq = protocol.EnqueueKernelReq{
		QueueID:    c.q.id,
		KernelID:   k.id,
		Global:     l.global(),
		Local:      l.local(),
		Args:       wireArgs,
		SimArrival: int64(c.arrival),
		WaitEvents: c.waits,
		CostFlops:  l.opts.CostFlops,
		CostBytes:  l.opts.CostBytes,
	}
	c.send(trace.KindKernel, msgBytes, req)

	// Written-buffer coherence at issue time. A kernel may write any byte,
	// so the launch node's replica — fully resident since arg setup above —
	// becomes the only valid holder of the whole buffer. The buffer was
	// unlocked since its chain was read: a writer that issued behind the
	// launch meanwhile keeps its place as the head (setHead).
	for _, b := range written {
		b.mu.Lock()
		if rb := b.remote[node]; rb != nil {
			b.define(node, rb, 0, b.size, c.ev)
		}
		b.mu.Unlock()
	}
	q.ctx.sess.logCommand(l)
	return c.ev, nil
}
