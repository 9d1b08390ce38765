package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/haocl-project/haocl/internal/profile"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/sched"
	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/transport"
	"github.com/haocl-project/haocl/internal/vtime"
)

// ErrCrossSession marks an attempt to use one session's objects from
// another session: wait on its events, enqueue against its buffers or
// kernels, broadcast into its namespaces. Sessions are isolation domains;
// sharing data across tenants goes through the cluster, not through host
// handles. Test with errors.Is.
var ErrCrossSession = errors.New("core: object belongs to another session")

// Session is one tenant's slice of the runtime. The Runtime owns the
// shared cluster substrate — node connections, the device table, the
// virtual-time links, recovery — while every piece of state that one
// misbehaving application could poison for another lives here: the object
// namespace (contexts and everything created from them, their queues'
// in-flight commands among it), the fire-and-forget release drain with its
// sticky error, the
// command log replayed after a node loss, the scheduling policy, and the
// per-tenant Metrics.
//
// Sessions are cheap: OpenSession performs no wire traffic (remote
// contexts are created per CreateContext call, tagged with the session's
// identity). All methods are safe for concurrent use, and concurrent
// sessions never serialize against each other except on the shared
// substrate itself.
type Session struct {
	rt     *Runtime
	id     uint64
	tenant string

	closed atomic.Bool

	// epoch is the membership epoch the session's state is caught up to.
	// withRecovery compares it with the runtime's before every command; a
	// session behind catches up first (recovery.go).
	epoch atomic.Uint64

	// owed is the error of the session's last catch-up if it failed, and
	// owedAt the epoch it ran under: the session owes a replay until one
	// succeeds. retried records that the last failure was the one more try
	// a failed catch-up gets at its epoch (stuck).
	owed    error  // guarded by Runtime.recoverMu
	owedAt  uint64 // guarded by Runtime.recoverMu
	retried bool   // guarded by Runtime.recoverMu

	// recGate is the session's recovery gate. Every public entry point that
	// enqueues (withRecovery) runs its command under the read side; the
	// session's catch-up holds the write side from draining its pipeline
	// to verifying its replay. A session's own commands therefore never
	// interleave with the replay of its log: one either lands, and is
	// logged, before the catch-up and is replayed by it, or runs after it
	// against the recovered state. No other session's catch-up takes it.
	// replaying is set, under the write side, while the log is re-issued,
	// so that replayed commands are not logged again.
	recGate   sync.RWMutex
	replaying atomic.Bool

	// trc is this session's tracing override; when nil, commands record
	// into the runtime-level attachment (see traceRun). Atomic so the hot
	// enqueue path reads it lock-free.
	trc atomic.Pointer[trace.Run]

	mu      sync.Mutex
	metrics Metrics      // guarded by mu
	policy  sched.Policy // guarded by mu

	// relMu guards the session's fire-and-forget releases: the IDs held
	// back per node until the session's next message to that node (see
	// releaseAsync), the release messages still awaiting acknowledgement,
	// and the sticky error of the first failed release. One tenant's failed
	// Release surfaces on its own Flush and nobody else's. relHeldN counts
	// the held IDs so the enqueue path skips the lock while none are.
	relMu      sync.Mutex
	relHeld    map[*NodeHandle]*heldReleases // guarded by relMu
	relHeldN   atomic.Int64
	relPending []pendingRelease // guarded by relMu
	relErr     error            // guarded by relMu

	// log is the session's command log: the mutating commands that still
	// matter, in issue order, replayed from zeroed buffer state after a node
	// loss. Only a session that owes a replay replays its log.
	log cmdLog

	// ctxMu guards the session's context registry — its object namespace.
	ctxMu    sync.Mutex
	contexts []*Context // guarded by ctxMu
}

// OpenSession creates a new isolated session for the named tenant. The
// name labels metrics and errors; it need not be unique.
func (rt *Runtime) OpenSession(tenant string) *Session {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	rt.nextSessID++
	s := &Session{
		rt:     rt,
		id:     rt.nextSessID,
		tenant: tenant,
		policy: rt.defaultPolicy,
	}
	s.metrics.ComputeBusy = make(map[profile.DeviceKey]vtime.Duration)
	s.epoch.Store(rt.epoch.Load())
	rt.sessions = append(rt.sessions, s)
	return s
}

// allSessions snapshots the open sessions.
func (rt *Runtime) allSessions() []*Session {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	return append([]*Session(nil), rt.sessions...)
}

// Tenant returns the tenant name given at OpenSession.
func (s *Session) Tenant() string { return s.tenant }

// ID returns the session's runtime-unique identifier.
func (s *Session) ID() uint64 { return s.id }

// Close flushes the session — draining its pipelined commands and release
// acknowledgements — and detaches it from the runtime. A closed session's
// command log ends: recovery no longer replays it, and its write records go
// back to their pool. Its sticky release error is reported here one last
// time. Objects the session created are released by their own Release
// calls; Close does not reach into the namespace.
func (s *Session) Close() error {
	err := s.Flush()
	s.closed.Store(true)
	s.log.end()
	s.rt.sessMu.Lock()
	for i, cand := range s.rt.sessions {
		if cand == s {
			// slices.Delete zeroes the vacated tail slot; a bare append
			// would leave the last closed session, and through it its
			// whole command log, reachable from the backing array.
			s.rt.sessions = slices.Delete(s.rt.sessions, i, i+1)
			break
		}
	}
	s.rt.sessMu.Unlock()
	return err
}

// bump applies one metrics mutation to the session's own accounting and to
// the runtime-wide aggregate, so Runtime.Metrics keeps reporting the whole
// run while Session.Metrics reports one tenant.
func (s *Session) bump(f func(m *Metrics)) {
	s.rt.mu.Lock()
	f(&s.rt.metrics)
	s.rt.mu.Unlock()
	s.mu.Lock()
	f(&s.metrics)
	s.mu.Unlock()
}

// call performs one protocol round trip on behalf of this session. A
// transport failure on a node that is no longer alive is classified as
// node loss so the recovering wrappers retry it.
func (s *Session) call(n *NodeHandle, req protocol.Message, resp protocol.Message) error {
	s.bump(func(m *Metrics) { m.Commands++ })
	s.sendHeldReleases(n)
	return classifyNodeErr(n, n.client.Load().Call(req, resp))
}

// issue ships one enqueue command without waiting for the response into
// ev's future, assigning the host-side completion-event ID and writing the
// frame atomically (see DESIGN.md §2 for the ordering contract). The
// response decodes into resp.
func (s *Session) issue(ev *Event, req protocol.CommandReq, resp protocol.Message) {
	s.bump(func(m *Metrics) { m.Commands++ })
	n := ev.dev.node
	s.sendHeldReleases(n)
	n.issueMu.Lock()
	defer n.issueMu.Unlock()
	n.eventID++
	req.SetEventID(n.eventID)
	ev.remoteID = n.eventID
	n.client.Load().Start(&ev.call, req, resp)
}

// create ships one create request to n without waiting for the response,
// naming the object itself: the ID is the connection's next, assigned with
// the frame write under issueMu as an event's is (issue), so a command
// naming the object may follow at once — the node files the object when it
// registers the create, in wire order. p is the call's future, in storage
// of the caller's, and resp, if not nil, what the response decodes into.
func (s *Session) create(n *NodeHandle, p *transport.Pending, req protocol.CreateReq, resp protocol.Message) uint64 {
	s.bump(func(m *Metrics) { m.Commands++ })
	s.sendHeldReleases(n)
	n.issueMu.Lock()
	defer n.issueMu.Unlock()
	n.objectID++
	req.SetObjectID(n.objectID)
	n.client.Load().Start(p, req, resp)
	return n.objectID
}

// createWait is create followed by its wait, for the creates whose errors
// the API reports at once: a context, a queue (an exclusive device's
// refusal), a build (its log).
func (s *Session) createWait(n *NodeHandle, req protocol.CreateReq, resp protocol.Message) (uint64, error) {
	var p transport.Pending
	id := s.create(n, &p, req, resp)
	return id, classifyNodeErr(n, p.Wait())
}

// heldReleases is one node's vector in the making: IDs of one kind, in
// release order.
type heldReleases struct {
	kind protocol.ObjectKind
	ids  []uint64
}

// pendingRelease is one Release message awaiting its ack.
type pendingRelease struct {
	node  *NodeHandle
	kind  protocol.ObjectKind
	count int
	pend  *transport.Pending
}

// maxReleaseVector caps the IDs one Release message carries. A teardown
// burst of n events costs n/256 frames and as many acks.
const maxReleaseVector = 256

// releaseAsync releases one remote object, fire-and-forget. Teardown
// releases objects in bursts, and a release is only an ID, so the ID is
// held back and ships in a vector with its neighbours: when the session
// next sends the node anything else (sendHeldReleases, from call and
// issue), at the session's next Flush, Close or drainReleases, when the
// vector is full, or when a release of another kind follows — one message
// names one kind. Relative to every other message of the session the wire
// order is therefore what it would be with one message per release, with
// consecutive releases merged. The acknowledgement is drained at the next
// Flush (or Close), where a failure becomes this session's sticky release
// error.
func (s *Session) releaseAsync(n *NodeHandle, kind protocol.ObjectKind, id uint64) {
	s.bump(func(m *Metrics) { m.Commands++ })
	s.relMu.Lock()
	h := s.relHeld[n]
	if h == nil {
		if s.relHeld == nil {
			s.relHeld = make(map[*NodeHandle]*heldReleases)
		}
		h = new(heldReleases)
		s.relHeld[n] = h
	}
	if len(h.ids) > 0 && h.kind != kind {
		s.sendHeld(n, h)
	}
	h.kind = kind
	h.ids = append(h.ids, id)
	s.relHeldN.Add(1)
	if len(h.ids) >= maxReleaseVector {
		s.sendHeld(n, h)
	}
	full := len(s.relPending) >= maxPendingReleases
	s.relMu.Unlock()
	if full {
		s.drainReleases()
	}
}

// sendHeld ships n's held IDs as one Release. Caller holds relMu — which
// is what keeps two vectors for one node in release order — and h.ids is
// not empty. The request references the IDs until the connection's writer
// has staged it (the transport encodes it later, on its writer goroutine,
// and a failed call does not mean it has), so the next vector starts a
// slice of its own; a request with a Free method would belong to the
// transport from Go on, but a Release has none. Nothing is sent to a node
// known to be down: the objects died with it, which absolves their
// release just as it absolves an ack lost in flight.
func (s *Session) sendHeld(n *NodeHandle, h *heldReleases) {
	if n.Alive() {
		req := &protocol.ReleaseReq{Kind: h.kind, ID: h.ids[0], More: h.ids[1:]}
		s.relPending = append(s.relPending, pendingRelease{
			node: n, kind: h.kind, count: len(h.ids),
			pend: n.client.Load().Go(req, nil),
		})
	}
	s.relHeldN.Add(-int64(len(h.ids)))
	h.ids = make([]uint64, 0, cap(h.ids))
}

// sendHeldReleases ships the releases held for n ahead of the message the
// caller is about to send it.
func (s *Session) sendHeldReleases(n *NodeHandle) {
	if s.relHeldN.Load() == 0 {
		return
	}
	s.relMu.Lock()
	if h := s.relHeld[n]; h != nil && len(h.ids) > 0 {
		s.sendHeld(n, h)
	}
	s.relMu.Unlock()
}

// drainReleases ships every held release, waits for every outstanding
// acknowledgement and returns the session's sticky release error: the
// first release that ever failed on this session, kept so a
// fire-and-forget failure is reported rather than lost — to this tenant
// only. Failures are classified before latching: an ack that died with a
// dead node's connection is tagged as node loss so recovery can absolve
// exactly those (the objects died with the node), while a live node's
// RemoteError — it names the offending ID — stays a genuine sticky error.
func (s *Session) drainReleases() error {
	s.relMu.Lock()
	if s.relHeldN.Load() > 0 {
		for _, n := range sortedNodeKeys(s.relHeld) {
			if h := s.relHeld[n]; len(h.ids) > 0 {
				s.sendHeld(n, h)
			}
		}
	}
	pending := s.relPending
	s.relPending = nil
	s.relMu.Unlock()
	for _, pr := range pending {
		if err := pr.pend.Wait(); err != nil {
			err = classifyNodeErr(pr.node, err)
			s.relMu.Lock()
			if s.relErr == nil {
				s.relErr = fmt.Errorf("core: release of %d %s object(s) on %q: %w",
					pr.count, pr.kind, pr.node.name, err)
			}
			s.relMu.Unlock()
		}
	}
	s.relMu.Lock()
	defer s.relMu.Unlock()
	return s.relErr
}

// drainPendingEvents resolves every outstanding pipelined future of this
// session (the event half of Flush, without touching the release pipeline),
// queue by queue. Each queue resolves in its own ID order; the order across
// queues does not matter (DESIGN.md §2).
func (s *Session) drainPendingEvents() {
	for _, ctx := range s.snapshotContexts() {
		for _, q := range ctx.allQueues() {
			q.drain()
		}
	}
}

// Flush resolves every outstanding pipelined command and release of this
// session. Command failures stay sticky on their queues; release failures
// surface here as the session's sticky release error. Another tenant's
// failures never do.
func (s *Session) Flush() error {
	s.drainPendingEvents()
	return s.drainReleases()
}

// Metrics returns a copy of the session's accumulated accounting, draining
// the session's outstanding commands first.
func (s *Session) Metrics() Metrics {
	s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.metrics
	out.ComputeBusy = make(map[profile.DeviceKey]vtime.Duration, len(s.metrics.ComputeBusy))
	for k, v := range s.metrics.ComputeBusy {
		out.ComputeBusy[k] = v
	}
	out.LogEntries, out.LogBytes = s.log.stats()
	return out
}

// SetPolicy swaps this session's default scheduling policy.
func (s *Session) SetPolicy(p sched.Policy) {
	if p == nil {
		return
	}
	s.mu.Lock()
	s.policy = p
	s.mu.Unlock()
}

// Policy returns this session's default scheduling policy.
func (s *Session) Policy() sched.Policy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.policy
}

// ModelDataCreate charges host-side creation of n bytes of input data for
// this session against the shared virtual host-memory resource and returns
// the instant the data is ready.
func (s *Session) ModelDataCreate(n int64) vtime.Time {
	cost := s.rt.hostMem.TransferCost(n)
	_, end := s.rt.hostMem.Transfer(0, n)
	s.bump(func(m *Metrics) { m.DataCreate += cost })
	return end
}

// chargeHost books an n-byte message on one direction of the shared host
// NIC — rt.nicOut for requests, rt.nicIn for response payloads
// (full-duplex GbE: reads do not contend with writes) — recording it in
// both the session's and the aggregate transfer metrics, and returns the
// booked interval: start is when the frame enters the link (the wire
// span's origin for tracing), end its arrival instant at the far end.
func (s *Session) chargeHost(link *vtime.Link, earliest vtime.Time, n int64) (start, end vtime.Time) {
	cost := link.TransferCost(n)
	start, end = link.Transfer(earliest, n)
	s.bump(func(m *Metrics) {
		m.Transfer += cost
		m.WireBytes += n
		m.HostWireBytes += n
	})
	return start, end
}

// chargePeer records n bytes of node↔node traffic for this session (link
// occupancy is modeled node-side; peer traffic never touches the host NIC).
func (s *Session) chargePeer(n int64) {
	s.bump(func(m *Metrics) {
		m.WireBytes += n
		m.PeerWireBytes += n
	})
}

// observeProfile folds a completed command's profile into the session and
// aggregate metrics and the shared monitor.
func (s *Session) observeProfile(key profile.DeviceKey, p protocol.Profile, isKernel bool) {
	end := vtime.Time(p.End)
	dur := vtime.Duration(p.DurationNS())
	s.bump(func(m *Metrics) {
		if end > m.Makespan {
			m.Makespan = end
		}
		if isKernel {
			m.ComputeBusy[key] += dur
		}
	})
	s.rt.monitor.ObserveCompletion(key, end)
}

// observeMakespan folds a virtual completion instant into the metrics.
func (s *Session) observeMakespan(t vtime.Time) {
	s.bump(func(m *Metrics) {
		if t > m.Makespan {
			m.Makespan = t
		}
	})
}

// logCommand appends one entry to the session's command log unless recovery
// is replaying it (replay must not grow the log it is walking).
func (s *Session) logCommand(e logEntry) {
	if s.replaying.Load() {
		return
	}
	s.log.append(e)
}

// replayLog re-issues entries, what survived of this session's mutation
// history when the catch-up took its snapshot (cmdLog.snapshot), through
// the enqueue internals and returns how many entries were replayed.
// Entries whose objects were released since are skipped, and so are those
// a queue of kept refuses: its failure is history. The snapshot holds each
// pooled write record until the record has been re-issued or skipped: a
// Release or Close meanwhile must not recycle it. err is the catch-up's
// failure so far: while it is set, nothing is replayed, but every hold is
// still given back. Caller holds recoverMu and the write side of
// s.recGate.
func (s *Session) replayLog(entries []logEntry, kept map[*Queue]error, err error) (replayed int, _ error) {
	s.replaying.Store(true)
	defer s.replaying.Store(false)
	for _, e := range entries {
		if err == nil && !e.skip() {
			if err = e.replay(s.rt); err == nil {
				replayed++
			} else if refusedBy(kept, err) {
				err = nil
			}
		}
		if w, ok := e.(*writeLog); ok {
			w.Free() // the snapshot's hold
		}
	}
	return replayed, err
}

// snapshotContexts copies the session's context registry.
func (s *Session) snapshotContexts() []*Context {
	s.ctxMu.Lock()
	defer s.ctxMu.Unlock()
	return append([]*Context(nil), s.contexts...)
}

// refusedBy reports whether err is the failure a queue of kept latched.
func refusedBy(kept map[*Queue]error, err error) bool {
	for q := range kept {
		if qerr := q.stickyErr(); qerr != nil && errors.Is(err, qerr) {
			return true
		}
	}
	return false
}

// owesReplay reports whether s must replay its log to catch up: its last
// catch-up failed, one of its contexts spans a node that left after the
// session's epoch, or one of its queues latched a crash-induced failure.
// Caller holds Runtime.recoverMu.
func (s *Session) owesReplay() bool {
	if s.owed != nil {
		return true
	}
	epoch := s.epoch.Load()
	for _, ctx := range s.snapshotContexts() {
		for _, d := range ctx.devices {
			if d.node.left > epoch {
				return true
			}
		}
		for _, q := range ctx.allQueues() {
			if isNodeLost(q.stickyErr()) {
				return true
			}
		}
	}
	return false
}
