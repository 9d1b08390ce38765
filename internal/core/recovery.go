package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/transport"
)

// This file implements crash recovery and elastic membership (DESIGN.md §7).
//
// Detection: the transport's OnDown hook marks a node's handle dead the
// instant its connection fails, before any pending future unblocks, so
// every error a caller observes afterwards classifies as node loss.
//
// Re-placement: recovery drains the in-flight pipeline, strips the dead
// node out of every context / queue / buffer / program / kernel, re-binds
// user queues onto surviving devices, resets all buffer state to zeros and
// re-issues the command log — buffer contents are a pure function of the
// mutation history, so the replay reconstructs exactly the pre-crash bytes
// with the dead node's share re-placed on survivors. Node-loss failures
// are retriable, not sticky: queues poisoned by the crash are cleared and
// events from before the recovery are absolved (their effects were
// replayed), while genuine command failures stay sticky as before.
//
// Rejoin: ReconnectNode dials the node's address again with bounded
// backoff, repeats the Hello handshake under a bumped membership epoch,
// re-creates contexts and program builds on the fresh process, and lets
// replicas re-materialize lazily — the first consumer command migrates the
// stale ranges back through the ordinary RangeSet gap machinery.

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
// node it was observed on is no longer alive. OnDown marks the handle dead
// before any pending future unblocks — but by the time a concurrent caller
// inspects its own failure, a recovery pass driven by another session's
// goroutine may already have moved the node from dead to removed, so the
// liveness check must be "not alive", not "dead". A RemoteError is the
// node answering, i.e. a genuine command failure, and passes through.
//
// haoclvet:errclass-sanitizer
func classifyNodeErr(n *NodeHandle, err error) error {
	if err == nil || n.Alive() || isNodeLost(err) {
		return err
	}
	var re *protocol.RemoteError
	if errors.As(err, &re) {
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
	if errors.Is(err, errNodeLost) {
		return true
	}
	var re *protocol.RemoteError
	return errors.As(err, &re) && re.Code == protocol.CodeNodeLost
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
// the connection — is worth one recovery pass).
//
// haoclvet:errclass-sink
func (rt *Runtime) shouldRecover(err error) bool {
	if err == nil || rt.closing.Load() {
		return false
	}
	return isNodeLost(err) || rt.anyDead()
}

// withRecovery runs op for session s, and on crash-induced failure
// recovers and retries. The public enqueue/synchronization entry points all
// funnel through here; the internals they wrap never recover (replay uses
// them directly). op runs under the read side of the session's recovery
// gate, which is dropped before recovering: a pass that replays this
// session waits for op to finish and keeps the retry out until the replay
// is verified.
func withRecovery[T any](s *Session, op func() (T, error)) (T, error) {
	gated := func() (T, error) {
		s.recGate.RLock()
		defer s.recGate.RUnlock()
		return op()
	}
	v, err := gated()
	for tries := 0; err != nil && tries < 3 && s.rt.shouldRecover(err); tries++ {
		if err = s.rt.Recover(); err != nil {
			return v, err
		}
		v, err = gated()
	}
	return v, err
}

// Recover re-places the work of every dead node on the survivors and
// replays the command log. It is a no-op when nothing is dead and no
// crash-induced failure is latched, so calling it opportunistically is
// cheap. Public API wrappers call it automatically; hosts driving the
// runtime manually may call it after noticing a failure themselves.
func (rt *Runtime) Recover() error {
	rt.recoverMu.Lock()
	defer rt.recoverMu.Unlock()
	return rt.recoverLocked()
}

// recoverLocked loops recovery passes until the cluster is stable: a node
// that dies while a pass is replaying is picked up by the next pass.
// Caller holds recoverMu.
func (rt *Runtime) recoverLocked() error {
	for round := 0; ; round++ {
		if round > len(rt.nodes)+1 {
			return fmt.Errorf("core: recovery did not converge after %d rounds", round)
		}
		ran, err := rt.recoverOnce()
		if err != nil {
			return err
		}
		if !ran {
			return nil
		}
		if !rt.anyDead() {
			return nil
		}
	}
}

// recoverOnce performs one recovery pass. It reports false when there was
// nothing to recover. Recovery is session-scoped: only the sessions whose
// contexts span a dead node (or whose queues latched a crash-induced
// failure) are gated, drained, stripped and replayed; bystander tenants
// keep running, and keep their pipelines, sticky release errors and command
// logs untouched. Caller holds rt.recoverMu.
func (rt *Runtime) recoverOnce() (bool, error) {
	var dead []*NodeHandle
	for _, n := range rt.nodes {
		if n.state.Load() == stateDead {
			dead = append(dead, n)
		}
	}
	sessions := rt.allSessions()
	var affected []*Session
	for _, s := range sessions {
		if s.needsRecovery(dead) {
			affected = append(affected, s)
		}
	}
	if len(dead) == 0 && len(affected) == 0 {
		return false, nil
	}
	for _, n := range dead {
		n.client.Load().Close()
	}

	// Gate the affected sessions for the whole pass. Their commands in
	// flight finish first — the dead connections are closed, so none waits
	// for an answer that cannot come — and their next ones wait for the
	// verified replay: an owner that kept enqueueing would have its newer
	// write overwritten by the replay of older entries.
	for _, s := range affected {
		s.recGate.Lock()
		defer s.recGate.Unlock()
	}

	// 1. Materialize every in-flight failure of the affected sessions:
	// resolve their pipelined futures (watchPush cancel goroutines unpark
	// awaiters stranded by a dead pusher) and reap their fire-and-forget
	// releases. Release acks that died with a dead connection are
	// expendable — the objects died with the node — so the crash does not
	// become a sticky release error; a genuine RemoteError from a live
	// node (drainReleases classifies each failure) stays latched and still
	// surfaces at the tenant's Flush/Close.
	for _, s := range affected {
		s.drainPendingEvents()
		s.drainReleases()
		s.relMu.Lock()
		if isNodeLost(s.relErr) {
			s.relErr = nil
		}
		s.relMu.Unlock()
	}

	// 2. Membership: the scheduler's device view must drop the dead nodes
	// before anything is re-placed.
	for _, n := range dead {
		rt.monitor.RemoveNode(n.name)
		n.state.Store(stateRemoved)
	}

	// 3. Strip dead-node state from the affected namespaces and re-bind
	// orphaned queues.
	var contexts []*Context
	for _, s := range affected {
		contexts = append(contexts, s.snapshotContexts()...)
	}
	for _, ctx := range contexts {
		if err := ctx.stripDead(dead); err != nil {
			return true, err
		}
	}

	// 4. New generation: events issued from here on are post-recovery;
	// everything older is never referenced on the wire again and its
	// crash-induced failure is absolved. The generation is global — an
	// unaffected session's older events simply fold into exact virtual-time
	// floors instead of wire waits, which preserves their semantics.
	rt.gen.Add(1)

	// 5. New membership epoch: survivors drop pooled peer connections and
	// cancel parked rendezvous, so replayed p2p traffic starts clean.
	rt.epoch++
	if err := rt.rehelloLocked(); err != nil {
		return true, err
	}

	// 6. Replay the affected sessions' mutation histories from zeroed
	// state. One pass counts one recovery in the aggregate; each affected
	// tenant's own metrics count it too.
	totalReplayed := 0
	var replayErr error
	spans := make([]trace.Span, 0, len(affected))
	for _, s := range affected {
		s.mu.Lock()
		replayFrom := s.metrics.Makespan
		s.mu.Unlock()
		replayed, err := s.replayLog()
		totalReplayed += replayed
		s.mu.Lock()
		s.metrics.Recoveries++
		s.metrics.ReplayedCommands += int64(replayed)
		s.mu.Unlock()
		spans = append(spans, trace.Span{
			Kind:   trace.KindRecovery,
			Tenant: s.tenant,
			Start:  replayFrom,
			Bytes:  int64(replayed),
			Replay: true,
		})
		if err != nil {
			replayErr = err
			break
		}
	}
	// One recovery span per replayed session: the makespan interval the
	// replay advanced through, tagged with the entry count. The end is read
	// on return, once the replayed commands have settled; read as replayLog
	// returns, it would depend on how far the nodes had got.
	defer func() {
		for i, sp := range spans {
			s := affected[i]
			s.mu.Lock()
			sp.End = s.metrics.Makespan
			s.mu.Unlock()
			s.traceRun().Add(sp)
		}
	}()
	rt.mu.Lock()
	rt.metrics.Recoveries++
	rt.metrics.ReplayedCommands += int64(totalReplayed)
	rt.mu.Unlock()
	if replayErr != nil {
		if rt.shouldRecover(replayErr) {
			return true, nil // another node died mid-replay: next round
		}
		return true, fmt.Errorf("core: recovery replay: %w", replayErr)
	}

	// 7. Settle and verify: every replayed command must have succeeded.
	for _, s := range affected {
		s.drainPendingEvents()
	}
	for _, ctx := range contexts {
		if err := ctx.checkQueuesClean(); err != nil {
			if rt.shouldRecover(err) {
				return true, nil // next round picks the new death up
			}
			return true, fmt.Errorf("core: recovery verification: %w", err)
		}
	}
	return true, nil
}

// stripDead removes every trace of the dead nodes from the context:
// remote context/object bindings, service queues, replicas. User queues
// bound to a dead device are re-bound to a surviving one; buffer state is
// reset to zeros so the log replay reconstructs contents deterministically;
// crash-poisoned queues are cleared.
func (c *Context) stripDead(dead []*NodeHandle) error {
	isDead := make(map[*NodeHandle]bool, len(dead))
	for _, n := range dead {
		isDead[n] = true
	}

	c.mu.Lock()
	for node, q := range c.svcQueue {
		if isDead[node] {
			delete(c.svcQueue, node)
			c.dropQueue(q)
		}
	}
	c.mu.Unlock()
	for _, n := range dead {
		c.dropRemote(n)
	}
	c.regMu.Lock()
	queues := append([]*Queue(nil), c.queues...)
	buffers := append([]*Buffer(nil), c.buffers...)
	programs := append([]*Program(nil), c.programs...)
	c.regMu.Unlock()

	for _, q := range queues {
		if dev, _ := q.binding(); isDead[dev.node] {
			if err := c.rebindQueue(q); err != nil {
				return err
			}
		}
		q.clearRetriableSticky()
	}
	for _, b := range buffers {
		b.resetForReplay(isDead)
	}
	for _, p := range programs {
		p.mu.Lock()
		for _, n := range dead {
			delete(p.remote, n)
		}
		kernels := append([]*Kernel(nil), p.kernels...)
		p.mu.Unlock()
		for _, k := range kernels {
			k.mu.Lock()
			for _, n := range dead {
				delete(k.remote, n)
			}
			k.mu.Unlock()
		}
	}
	return nil
}

// dropQueue removes a (service) queue from the context registry; its node
// died, and service queues are re-created lazily rather than re-bound.
func (c *Context) dropQueue(q *Queue) {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	for i, cand := range c.queues {
		if cand == q {
			c.queues = append(c.queues[:i], c.queues[i+1:]...)
			return
		}
	}
}

// rebindQueue moves a user queue whose device died onto a surviving
// context device, preferring one of the same type — the re-placement step
// of recovery. The queue object is the same host-side handle; only its
// device binding and remote ID change.
func (c *Context) rebindQueue(q *Queue) error {
	old, _ := q.binding()
	target := c.replacementDevice(old)
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

// replacementDevice picks a surviving context device for re-placement,
// preferring the crashed device's type.
func (c *Context) replacementDevice(old *DeviceRef) *DeviceRef {
	var fallback *DeviceRef
	for _, d := range c.devices {
		if !d.node.Alive() {
			continue
		}
		if d.info.Type == old.info.Type {
			return d
		}
		if fallback == nil {
			fallback = d
		}
	}
	return fallback
}

// clearRetriableSticky lifts a crash-induced sticky error off the queue:
// node loss is retriable — the replay re-establishes the lost work —
// whereas genuine command failures stay sticky exactly as before.
func (q *Queue) clearRetriableSticky() {
	q.mu.Lock()
	if isNodeLost(q.err) {
		q.err = nil
	}
	q.mu.Unlock()
}

// resetForReplay clears all coherence state so the log replay
// reconstructs contents from deterministic zeros: surviving replicas keep
// their device arrays but lose all validity (stale bytes become
// unreachable; a range the replay leaves unwritten relays as zeros), and
// the write chains are cut — pre-recovery events are never referenced
// again.
func (b *Buffer) resetForReplay(isDead map[*NodeHandle]bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for node := range b.remote {
		if isDead[node] {
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
	peers := peerAddrs(alive)
	for _, n := range alive {
		var resp protocol.HelloResp
		err := rt.call(n, &protocol.HelloReq{
			UserID:      rt.userID,
			ClientName:  rt.clientName,
			WireVersion: protocol.Version,
			Peers:       peers,
			Epoch:       rt.epoch,
		}, &resp)
		if err != nil {
			if rt.shouldRecover(err) {
				continue // died during the re-hello: next round handles it
			}
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
// ranges back through the ordinary RangeSet gap machinery. If the node's
// crash has not been recovered yet, recovery runs first so the rejoin
// starts from a consistent cluster.
func (rt *Runtime) ReconnectNode(name string) error {
	rt.recoverMu.Lock()
	defer rt.recoverMu.Unlock()

	var h *NodeHandle
	for _, n := range rt.nodes {
		if n.name == name {
			h = n
			break
		}
	}
	if h == nil {
		return fmt.Errorf("core: unknown node %q", name)
	}
	if h.Alive() {
		// Looking alive may just mean the crash is undetected: nothing
		// touched this node since it died. Probe the pooled connection —
		// a live node makes the rejoin a no-op, a dead one fails the
		// probe, which marks the handle down (OnDown fires before the
		// pending call unblocks) and the rejoin proceeds.
		rt.mu.Lock()
		rt.metrics.Commands++
		rt.mu.Unlock()
		var status protocol.NodeStatusResp
		if err := h.client.Load().Call(&protocol.NodeStatusReq{}, &status); err == nil {
			return nil // genuinely alive: double rejoin
		}
	}
	if rt.anyDead() {
		if err := rt.recoverLocked(); err != nil {
			return err
		}
	}

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

	rt.epoch++
	resp, err := hello(client, rt.userID, rt.clientName, peerAddrs(append(rt.aliveNodes(), h)), rt.epoch)
	if err != nil {
		client.Close()
		return fmt.Errorf("core: rejoin handshake with %q: %w", name, err)
	}
	// Publish the fresh connection before flipping the handle alive, so a
	// caller that observes stateAlive also loads the new client.
	h.client.Store(client)
	h.bootID.Store(resp.BootID)
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
	// connection to the node's previous incarnation.
	return rt.rehelloLocked()
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
		resp, err := p.buildOn(h, ctxID)
		if err != nil {
			return fmt.Errorf("re-build program: %w", err)
		}
		p.mu.Lock()
		p.remote[h] = resp.ProgramID
		p.mu.Unlock()
	}
	return nil
}
