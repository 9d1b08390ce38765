package core

import (
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/transport"
)

// ownerSpan assigns one sub-range of a migration gap to the replica that
// supplies it.
type ownerSpan struct {
	node *NodeHandle
	rb   *remoteBuf
	r    mem.Range
}

// planOwners covers as much of gap as replicas hold valid, walking the
// runtime's deterministic node order so every host process plans the same
// transfers for the same state. It returns the per-owner spans in supply
// order plus the leftover sub-ranges no replica owns — by the coherence
// invariant (Buffer) never written, and thus deterministic zeros.
// Caller holds b.mu.
func (b *Buffer) planOwners(gap mem.Range) (plan []ownerSpan, leftover []mem.Range) {
	var need mem.RangeSet
	need.Add(gap.Lo, gap.Hi)
	for _, owner := range b.ctx.rt.nodes {
		if need.Empty() {
			break
		}
		orb, ok := b.remote[owner]
		if !ok {
			continue
		}
		for _, span := range orb.valid.Overlap(gap.Lo, gap.Hi) {
			for _, sub := range need.Overlap(span.Lo, span.Hi) {
				plan = append(plan, ownerSpan{node: owner, rb: orb, r: sub})
				need.Remove(sub.Lo, sub.Hi)
			}
		}
	}
	return plan, need.Spans()
}

// migrateP2P moves the stale gaps of node's replica directly from their
// owning replicas: for each owner-covered span the host issues a PushRange
// to the owner and a matching AwaitPush to the consumer — two control
// frames on the host NIC, while the payload crosses the owner's node link.
// The host stays the control plane: it plans from the validity map, assigns
// both completion events, and wires them into the usual chains, so
// pipelining, wait-lists and failure cascades work as for any queue
// command. Spans no replica owns were never written, so their content is
// zeros (uninitialized OpenCL buffers read deterministically as zeros):
// there is no peer to push them, and the host relays a zero-filled payload
// of the span's length instead — the one host-relay push left.
// Caller holds b.mu.
func (b *Buffer) migrateP2P(node *NodeHandle, rb *remoteBuf, gaps []mem.Range) error {
	svc, err := b.ctx.serviceQueue(node)
	if err != nil {
		return err
	}
	if err := svc.stickyErr(); err != nil {
		return err
	}
	svcDev, svcQID := svc.binding()
	for _, g := range gaps {
		plan, leftover := b.planOwners(g)
		for _, ps := range plan {
			if err := b.pushFromPeer(node, rb, svc, ps); err != nil {
				return err
			}
		}
		for _, r := range leftover {
			pushEv := &Event{dev: svcDev, queue: svc}
			chain, earliest, err := rb.chainWaits(pushEv.waits[:0], b.hostReadyAt)
			if err != nil {
				return err
			}
			modelBytes := b.scaled(r.Len())
			wireStart, arrival := b.ctx.sess.chargeNIC(earliest, controlMsgBytes+modelBytes)
			pushEv.trace = b.ctx.sess.traceCmd(trace.KindMigrate, svcDev, 0, modelBytes, wireStart, arrival)
			id := b.ctx.sess.issueEvent(pushEv, &protocol.WriteBufferReq{
				QueueID:    svcQID,
				BufferID:   rb.id,
				Offset:     r.Lo,
				Data:       make([]byte, r.Len()),
				SimArrival: int64(arrival),
				ModelBytes: modelBytes,
				WaitEvents: chain,
			})
			svc.track(pushEv)
			rb.valid.Add(r.Lo, r.Hi)
			rb.lastEvent = id
			rb.lastEv = pushEv
		}
	}
	return nil
}

// pushFromPeer issues one PushRange/AwaitPush pair moving ps.r from its
// owner to node. Caller holds b.mu.
func (b *Buffer) pushFromPeer(node *NodeHandle, rb *remoteBuf, svc *Queue, ps ownerSpan) error {
	rt := b.ctx.rt
	sess := b.ctx.sess
	ownerSvc, err := b.ctx.serviceQueue(ps.node)
	if err != nil {
		return err
	}
	if err := ownerSvc.stickyErr(); err != nil {
		return err
	}
	ownerDev, ownerQID := ownerSvc.binding()
	svcDev, svcQID := svc.binding()
	pushEv := &Event{dev: ownerDev, queue: ownerSvc}
	ownerChain, ownerFloor, err := ps.rb.chainWaits(pushEv.waits[:0], 0)
	if err != nil {
		return err
	}
	awaitEv := &Event{dev: svcDev, queue: svc}
	consumerChain, consumerFloor, err := rb.chainWaits(awaitEv.waits[:0], 0)
	if err != nil {
		return err
	}

	token := rt.nextPushToken()
	modelBytes := b.scaled(ps.r.Len())

	// Only the control frames cross the host NIC. The payload is charged
	// to the owner's egress link node-side; the host keeps byte accounting.
	pushCtrlStart, pushCtrl := sess.chargeNIC(ownerFloor, controlMsgBytes)
	pushEv.trace = sess.traceCmd(trace.KindPushRange, ownerDev, 0, modelBytes, pushCtrlStart, pushCtrl)
	pushID := sess.issueEvent(pushEv, &protocol.PushRangeReq{
		QueueID:      ownerQID,
		BufferID:     ps.rb.id,
		PeerName:     node.name,
		PeerBufferID: rb.id,
		Token:        token,
		Offset:       ps.r.Lo,
		Size:         ps.r.Len(),
		SimArrival:   int64(pushCtrl),
		ModelBytes:   modelBytes,
		WaitEvents:   ownerChain,
	})
	ownerSvc.track(pushEv)
	// The push becomes the owner replica's chain head: a later write there
	// must wait for the device read (anti-dependency), and the in-order
	// service queue sequences later pushes for free. Validity is untouched
	// — a push does not invalidate its source.
	ps.rb.lastEvent = pushID
	ps.rb.lastEv = pushEv

	awaitCtrlStart, awaitCtrl := sess.chargeNIC(consumerFloor, controlMsgBytes)
	awaitEv.trace = sess.traceCmd(trace.KindAwaitPush, svcDev, 0, modelBytes, awaitCtrlStart, awaitCtrl)
	awaitID := sess.issueEvent(awaitEv, &protocol.AwaitPushReq{
		QueueID:    svcQID,
		BufferID:   rb.id,
		Token:      token,
		Offset:     ps.r.Lo,
		Size:       ps.r.Len(),
		SimArrival: int64(awaitCtrl),
		ModelBytes: modelBytes,
		WaitEvents: consumerChain,
	})
	svc.track(awaitEv)
	sess.chargePeer(modelBytes)
	rt.watchPush(node.client.Load(), token, pushEv)

	rb.valid.Add(ps.r.Lo, ps.r.Hi)
	rb.lastEvent = awaitID
	rb.lastEv = awaitEv
	return nil
}

// watchPush cancels the consumer-side rendezvous when the source push
// fails, so the awaiter — and everything chained behind it — fails instead
// of parking forever: the failure cascade spans the peer link exactly as it
// spans a queue. The consumer's connection is pinned at call time: a
// concurrent rejoin may swap the handle's client, and the cancel belongs to
// the incarnation the await was issued on.
func (rt *Runtime) watchPush(consumer *transport.Client, token uint64, pushEv *Event) {
	go func() {
		// waitErr, not Wait: recovery's pipeline drain depends on this
		// goroutine to unpark stranded awaiters, so it must never block on
		// recovery itself.
		err := pushEv.waitErr()
		if err == nil {
			return
		}
		pushEv.queue.ctx.sess.bump(func(m *Metrics) { m.Commands++ })
		// Best effort: the awaiter reports the original failure; a dead
		// consumer connection fails the awaiter through its own teardown.
		pend := consumer.Go(&protocol.CancelPushReq{Token: token, Reason: err.Error()}, nil)
		pend.Wait()
	}()
}
