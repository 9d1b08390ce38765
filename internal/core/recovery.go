package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/transport"
)

// This file implements crash recovery and elastic membership (DESIGN.md §7).
//
// Detection: the transport's OnDown hook marks a node's handle dead before
// any pending future unblocks, so every error a caller observes afterwards
// classifies as node loss.
//
// Recovery is two steps under recoverMu. The membership step moves the dead
// nodes out and advances the epoch, which every session that owes no
// replay records at once. Each other session catches up on its own: it
// strips every node that is not alive, replays its command log from zeroed
// buffers — contents are a pure function of the mutation history — and
// records the epoch only once the replay verified.
//
// Rejoin: ReconnectNode dials the node again, repeats the Hello under a
// bumped epoch and re-creates contexts and program builds on the fresh
// process; replicas re-materialize lazily through the RangeSet gaps.

// errNodeLost marks failures caused by a node crash; they are retriable
// (recovery clears them and re-issues the lost work), unlike ordinary
// sticky command failures.
var errNodeLost = errors.New("core: node lost")

// nodeLostError tags a transport failure observed on a dead node's
// connection as retriable while preserving the cause.
type nodeLostError struct{ cause error }

func (e *nodeLostError) Error() string   { return fmt.Sprintf("node lost: %v", e.cause) }
func (e *nodeLostError) Unwrap() []error { return []error{errNodeLost, e.cause} }

// classifyNodeErr tags a transport-level failure as crash-induced when the
// node it was observed on is no longer alive: not "dead", since a
// membership step another goroutine drives may already have removed it. A
// RemoteError is the node answering, a genuine failure, and passes through.
//
// haoclvet:errclass-sanitizer
func classifyNodeErr(n *NodeHandle, err error) error {
	if err == nil || n.Alive() || isNodeLost(err) || errors.As(err, new(*protocol.RemoteError)) {
		return err
	}
	return &nodeLostError{cause: err}
}

// isNodeLost classifies an error as crash-induced: either tagged host-side
// (connection to a dead node) or carrying the wire code nodes use for
// failures they themselves attribute to membership loss (cancelled push
// rendezvous, peer pool resets).
//
// haoclvet:errclass-sink
func isNodeLost(err error) bool {
	var re *protocol.RemoteError
	return errors.Is(err, errNodeLost) || errors.As(err, &re) && re.Code == protocol.CodeNodeLost
}

// anyDead reports whether some node awaits recovery.
func (rt *Runtime) anyDead() bool {
	for _, n := range rt.nodes {
		if n.state.Load() == stateDead {
			return true
		}
	}
	return false
}

// aliveNodes lists the handles currently believed good.
func (rt *Runtime) aliveNodes() []*NodeHandle {
	var out []*NodeHandle
	for _, n := range rt.nodes {
		if n.Alive() {
			out = append(out, n)
		}
	}
	return out
}

// shouldRecover reports whether err warrants running recovery and retrying:
// either the error itself is crash-induced, or some node is marked dead (in
// which case even an untyped failure — a synchronous call that died with
// the connection — is worth one recovery).
//
// haoclvet:errclass-sink
func (rt *Runtime) shouldRecover(err error) bool {
	if err == nil || rt.closing.Load() {
		return false
	}
	return isNodeLost(err) || rt.anyDead()
}

// withRecovery runs op for session s, and on crash-induced failure
// recovers the session and retries. The public enqueue/synchronization
// entry points all funnel through here; the internals they wrap never
// recover (replay uses them directly). op runs under the read side of the
// session's recovery gate, and only while the session is caught up to the
// runtime's epoch: a session behind — a membership step ran, or its own
// catch-up failed — catches up first, so no command sees pre-replay state.
func withRecovery[T any](s *Session, op func() (T, error)) (T, error) {
	gated := func() (T, error) {
		s.recGate.RLock()
		defer s.recGate.RUnlock()
		if s.epoch.Load() != s.rt.epoch.Load() {
			var behind T
			return behind, errNodeLost
		}
		return op()
	}
	v, err := gated()
	for tries := 0; err != nil && tries < 3 && s.rt.shouldRecover(err); tries++ {
		if err = s.recover(); err != nil {
			return v, err
		}
		v, err = gated()
	}
	return v, err
}

// Recover moves every dead node out of the cluster and catches every open
// session up, replaying the logs of those that owe it. It is a no-op when
// nothing is dead and no session is behind or latched a crash-induced
// failure, so calling it opportunistically is cheap. It reports the first
// catch-up that failed in this call. Public API wrappers recover their own
// session automatically; hosts driving the runtime manually may call this
// after noticing a failure themselves.
func (rt *Runtime) Recover() error {
	rt.recoverMu.Lock()
	defer rt.recoverMu.Unlock()
	return rt.recoverLocked()
}

// recoverLocked runs the membership step, after settling every session's
// commands in flight if a node is dead (see recover), then catches up each
// session that is not stuck, again while a removal moved the epoch.
// Caller holds recoverMu.
func (rt *Runtime) recoverLocked() error {
	if rt.anyDead() {
		for _, s := range rt.allSessions() {
			s.drainPendingEvents()
		}
	}
	firstErr := rt.membershipLocked()
	for epoch := uint64(0); epoch != rt.epoch.Load(); {
		epoch = rt.epoch.Load()
		for _, s := range rt.allSessions() {
			if s.stuck() != nil {
				continue // its commands report its failure
			}
			if err := s.catchUpLocked(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// recover catches s up; other sessions catch up on their own. Its commands
// in flight settle first: the membership step's re-hello cancels parked
// push rendezvous, and a push between two survivors cut short by it would
// make what the replay redoes depend on how far the nodes had got.
func (s *Session) recover() error {
	s.rt.recoverMu.Lock()
	defer s.rt.recoverMu.Unlock()
	s.drainPendingEvents()
	return s.catchUpLocked()
}

// catchUpLocked alternates membership steps and s's catch-up until s is
// caught up. A node-lost error means a node died — a re-hello finds one
// the host has not seen — so the next step removes one, and len(nodes)+1
// steps bound the loop. Any other error is returned and s stays behind; a
// catch-up that fails so gets one more try at the epoch, at the tenant's
// next synchronization, and then none before the epoch moves (stuck).
// Caller holds Runtime.recoverMu.
func (s *Session) catchUpLocked() error {
	rt := s.rt
	epoch := rt.epoch.Load()
	again := s.owed != nil && s.owedAt == epoch
	var err error
	for round := 0; ; round++ {
		if err != nil && !rt.anyDead() {
			_ = rt.rehelloLocked() // a dead peer's failed Hello marks it dead
		}
		if err := rt.membershipLocked(); err != nil {
			return err
		}
		if err := s.stuck(); err != nil {
			return err
		}
		if err = s.catchUp(); err == nil || !rt.shouldRecover(err) {
			break
		}
		if round == len(rt.nodes) {
			s.owed = fmt.Errorf("core: recovery of tenant %q did not converge: %v", s.tenant, err)
			err = s.owed
			break
		}
	}
	s.retried = err != nil && again && s.owedAt == epoch
	return err
}

// stuck returns the hard failure of s's last catch-up once that was the
// one more try at the epoch, until the epoch moves.
// Caller holds Runtime.recoverMu.
func (s *Session) stuck() error {
	if s.retried && !isNodeLost(s.owed) && s.owedAt == s.rt.epoch.Load() {
		return s.owed
	}
	return nil
}

// membershipLocked is the membership step: each dead node's connection
// closes, the scheduler forgets its devices and its handle records the
// epoch it left under; the generation and epoch advance, the survivors are
// re-helloed (one that dies meanwhile goes in the next iteration) and the
// bystanders pass. Caller holds recoverMu.
func (rt *Runtime) membershipLocked() error {
	for rt.anyDead() {
		epoch := rt.epoch.Load() + 1
		for _, n := range rt.nodes {
			if n.state.Load() == stateDead {
				n.client.Load().Close()
				rt.monitor.RemoveNode(n.name)
				n.left = epoch
				n.state.Store(stateRemoved)
			}
		}
		rt.gen.Add(1)
		rt.epoch.Store(epoch)
		rt.mu.Lock()
		rt.metrics.Recoveries++
		rt.mu.Unlock()
		if err := rt.rehelloLocked(); err != nil {
			return err
		}
		rt.passBystanders()
	}
	return nil
}

// passBystanders records the epoch of every session that owes no replay:
// its next command does not wait on recoverMu behind others' replays.
// Caller holds recoverMu.
func (rt *Runtime) passBystanders() {
	epoch := rt.epoch.Load()
	for _, s := range rt.allSessions() {
		if !s.owesReplay() {
			s.epoch.Store(epoch)
		}
	}
}

// catchUp is s's catch-up step. A session that owes no replay only records
// the epoch. One that does holds its gate's write side throughout: its
// commands in flight settle first, and its next ones wait for the verified
// replay, which would overwrite them with older entries. A genuine failure
// from before the crash is lifted for the replay, which repeats it, and
// latched again; one the replay latches fails the catch-up.
// Caller holds Runtime.recoverMu.
func (s *Session) catchUp() error {
	rt := s.rt
	epoch := rt.epoch.Load()
	if !s.owesReplay() {
		s.epoch.Store(epoch)
		return nil
	}
	s.recGate.Lock()
	defer s.recGate.Unlock()

	// Materialize every in-flight failure (watchPush goroutines unpark the
	// awaiters a dead pusher stranded). Release acks that died with a node
	// are expendable — the objects died with it; a genuine RemoteError
	// stays latched for the tenant's Flush.
	s.drainPendingEvents()
	s.drainReleases()
	s.relMu.Lock()
	if isNodeLost(s.relErr) {
		s.relErr = nil
	}
	s.relMu.Unlock()

	contexts := s.snapshotContexts()
	kept := make(map[*Queue]error)
	for _, ctx := range contexts {
		for _, q := range ctx.allQueues() {
			q.mu.Lock()
			if q.err != nil && !isNodeLost(q.err) {
				kept[q] = q.err
			}
			q.err = nil
			q.mu.Unlock()
		}
	}

	// The log is read before the re-placement, which waits on nodes: a
	// Release meanwhile retires entries the snapshot still holds, and the
	// replay skips them.
	snap := s.log.snapshot()

	// Strip every node that is not alive and replay in a new generation:
	// older events are never referenced on the wire again.
	gone := make(map[*NodeHandle]bool)
	for _, n := range rt.nodes {
		if !n.Alive() {
			gone[n] = true
		}
	}
	var err error
	for _, ctx := range contexts {
		if err == nil {
			err = ctx.strip(gone)
		}
	}
	rt.gen.Add(1)
	s.mu.Lock()
	span := trace.Span{Kind: trace.KindRecovery, Tenant: s.tenant, Start: s.metrics.Makespan, Replay: true}
	s.mu.Unlock()
	replayed, rerr := s.replayLog(snap, kept, err)
	if err == nil && rerr != nil {
		err = fmt.Errorf("core: recovery replay: %w", rerr)
	}
	// Verify that every replayed command succeeded.
	for _, ctx := range contexts {
		for _, q := range ctx.allQueues() {
			q.drain()
			q.mu.Lock()
			if _, ok := kept[q]; !ok && q.err != nil && err == nil {
				err = fmt.Errorf("core: recovery verification: %w", q.err)
			}
			q.err = kept[q]
			q.mu.Unlock()
		}
	}
	// One recovery span per replay: the makespan interval it advanced
	// through, read once the replayed commands have settled.
	s.bump(func(m *Metrics) { m.ReplayedCommands += int64(replayed) })
	s.mu.Lock()
	s.metrics.Recoveries++
	span.End, span.Bytes = s.metrics.Makespan, int64(replayed)
	s.mu.Unlock()
	s.traceRun().Add(span)
	if err != nil {
		s.owed, s.owedAt = err, epoch
		return err
	}
	s.owed = nil
	s.epoch.Store(epoch)
	return nil
}

// strip removes every trace of the gone nodes from the context: remote
// instances, service queues, replicas, program and kernel builds, and
// resets buffer state to zeros for the replay. User queues bound to a gone
// device are re-bound to a surviving one last, when all else is gone.
func (c *Context) strip(gone map[*NodeHandle]bool) error {
	c.mu.Lock()
	for node, svc := range c.svcQueue {
		if gone[node] {
			delete(c.svcQueue, node)
			c.regMu.Lock()
			c.queues = slices.DeleteFunc(c.queues, func(q *Queue) bool { return q == svc })
			c.regMu.Unlock()
		}
	}
	c.mu.Unlock()
	for n := range gone {
		c.dropRemote(n)
	}
	c.regMu.Lock()
	queues := append([]*Queue(nil), c.queues...)
	buffers := append([]*Buffer(nil), c.buffers...)
	programs := append([]*Program(nil), c.programs...)
	c.regMu.Unlock()

	for _, b := range buffers {
		b.resetForReplay(gone)
	}
	for _, p := range programs {
		p.mu.Lock()
		for n := range gone {
			delete(p.remote, n)
		}
		kernels := append([]*Kernel(nil), p.kernels...)
		p.mu.Unlock()
		for _, k := range kernels {
			k.mu.Lock()
			for n := range gone {
				delete(k.remote, n)
			}
			k.mu.Unlock()
		}
	}
	for _, q := range queues {
		if dev, _ := q.binding(); gone[dev.node] {
			if err := c.rebindQueue(q); err != nil {
				return err
			}
		}
	}
	return nil
}

// rebindQueue moves a user queue whose device is gone onto a surviving
// context device: the first of the lost device's type, else the first. The
// queue stays the same host-side handle; its binding and remote ID change.
func (c *Context) rebindQueue(q *Queue) error {
	old, _ := q.binding()
	var target *DeviceRef
	for _, d := range c.devices {
		if d.node.Alive() && (target == nil || d.info.Type == old.info.Type && target.info.Type != old.info.Type) {
			target = d
		}
	}
	if target == nil {
		return fmt.Errorf("core: no surviving device to re-place queue from %s", old.key)
	}
	id, err := c.remoteQueue(target)
	if err != nil {
		return fmt.Errorf("core: re-place queue from %s: %w", old.key, err)
	}
	q.mu.Lock()
	q.dev = target
	q.remoteID = id
	q.mu.Unlock()
	return nil
}

// resetForReplay clears all coherence state so the log replay
// reconstructs contents from deterministic zeros: surviving replicas keep
// their device arrays but lose all validity (stale bytes become
// unreachable; a range the replay leaves unwritten relays as zeros), and
// the write chains are cut — pre-recovery events are never referenced
// again.
func (b *Buffer) resetForReplay(gone map[*NodeHandle]bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for node := range b.remote {
		if gone[node] {
			delete(b.remote, node)
		}
	}
	b.hostReadyAt = 0
	for _, rb := range b.remote {
		rb.valid.Reset()
		rb.head = nil
	}
}

// rehelloLocked repeats the Hello handshake with every live node under the
// current membership epoch and address book. Nodes that observe the epoch
// advance drop their pooled peer connections and cancel parked push
// rendezvous, so stale routes to dead incarnations cannot linger.
// Caller holds rt.recoverMu.
func (rt *Runtime) rehelloLocked() error {
	alive := rt.aliveNodes()
	req := &protocol.HelloReq{UserID: rt.userID, ClientName: rt.clientName,
		WireVersion: protocol.Version, Peers: peerAddrs(alive), Epoch: rt.epoch.Load()}
	for _, n := range alive {
		var resp protocol.HelloResp
		// A node that dies meanwhile is the membership step's next removal.
		if err := rt.call(n, req, &resp); err != nil && !rt.shouldRecover(err) {
			return fmt.Errorf("core: re-hello %q: %w", n.name, err)
		}
	}
	return nil
}

// peerAddrs is the address book a Hello carries: nodes' names and
// addresses, in order.
func peerAddrs(nodes []*NodeHandle) []protocol.PeerAddr {
	peers := make([]protocol.PeerAddr, 0, len(nodes))
	for _, n := range nodes {
		peers = append(peers, protocol.PeerAddr{Name: n.name, Addr: n.addr})
	}
	return peers
}

// reconnectAttempts bounds the rejoin dial loop; backoff doubles from
// reconnectBackoff between attempts.
const (
	reconnectAttempts = 8
	reconnectBackoff  = 2 * time.Millisecond
)

// ReconnectNode re-admits a crashed (or restarted) node: dial its address
// again with bounded backoff, repeat the Hello handshake under a bumped
// membership epoch, and re-create this runtime's contexts and program
// builds on the fresh process. Replicas are NOT eagerly restored — they
// re-materialize lazily, the first consumer command migrating the stale
// ranges back through the ordinary RangeSet gap machinery. Recovery runs
// first, so the rejoin starts from a consistent cluster; a session that
// cannot catch up does not fail the rejoin.
func (rt *Runtime) ReconnectNode(name string) error {
	rt.recoverMu.Lock()
	defer rt.recoverMu.Unlock()

	i := slices.IndexFunc(rt.nodes, func(n *NodeHandle) bool { return n.name == name })
	if i < 0 {
		return fmt.Errorf("core: unknown node %q", name)
	}
	h := rt.nodes[i]
	if h.Alive() {
		// The crash may be undetected. A live node makes the rejoin a
		// no-op; a dead one fails the probe, which marks it down (OnDown
		// fires before the pending call unblocks).
		var status protocol.NodeStatusResp
		if rt.call(h, &protocol.NodeStatusReq{}, &status) == nil {
			return nil // genuinely alive: double rejoin
		}
	}
	// Every session catches up first, so that none holds objects of the
	// node's previous incarnation; one that cannot keeps its failure.
	_ = rt.recoverLocked()

	var client *transport.Client
	var err error
	delay := reconnectBackoff
	for attempt := 1; ; attempt++ {
		if client, err = rt.dialer.Dial(h.addr); err == nil || attempt == reconnectAttempts {
			break
		}
		time.Sleep(delay)
		delay *= 2
	}
	if err != nil {
		return fmt.Errorf("core: reconnect %q: %w", name, err)
	}

	epoch := rt.epoch.Add(1)
	resp, err := hello(client, rt.userID, rt.clientName, peerAddrs(append(rt.aliveNodes(), h)), epoch)
	if err != nil {
		client.Close()
		return fmt.Errorf("core: rejoin handshake with %q: %w", name, err)
	}
	// Publish the fresh connection before flipping the handle alive, so a
	// caller that observes stateAlive also loads the new client. Its
	// object IDs count from 1 again: the node's table is the connection's.
	h.issueMu.Lock()
	h.client.Store(client)
	h.objectID = 0
	h.issueMu.Unlock()
	h.state.Store(stateAlive)
	rt.watchNode(h, client)
	for _, info := range resp.Devices {
		rt.monitor.RegisterDevice(h.name, info)
	}

	// Re-create the control-plane objects the fresh process needs before
	// any command can route to it, across every session's namespace; data
	// re-replicates lazily.
	for _, s := range rt.allSessions() {
		for _, ctx := range s.snapshotContexts() {
			if err := ctx.restoreOn(h); err != nil {
				return fmt.Errorf("core: rejoin %q: %w", name, err)
			}
		}
	}

	// Survivors learn the new address book and epoch, dropping any pooled
	// connection to the node's previous incarnation; every session that
	// owes nothing is at the new epoch before its next command.
	if err := rt.rehelloLocked(); err != nil {
		return err
	}
	rt.passBystanders()
	return nil
}

// restoreOn re-creates the context and its built programs on a rejoined
// node. Kernels, service queues and replicas re-materialize lazily.
func (c *Context) restoreOn(h *NodeHandle) error {
	var ids []int64
	for _, d := range c.devices {
		if d.node == h {
			ids = append(ids, int64(d.info.ID))
		}
	}
	if len(ids) == 0 {
		return nil // context does not span this node
	}
	ctxID, err := c.sess.remoteContext(h, ids)
	if err != nil {
		return fmt.Errorf("re-create context: %w", err)
	}
	c.setRemote(h, ctxID)
	c.regMu.Lock()
	programs := append([]*Program(nil), c.programs...)
	c.regMu.Unlock()
	for _, p := range programs {
		p.mu.Lock()
		built := p.built
		p.mu.Unlock()
		if !built {
			continue
		}
		id, _, err := p.buildOn(h, ctxID)
		if err != nil {
			return fmt.Errorf("re-build program: %w", err)
		}
		p.mu.Lock()
		p.remote[h] = id
		p.mu.Unlock()
	}
	return nil
}
