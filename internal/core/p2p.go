package core

import (
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/transport"
	"github.com/haocl-project/haocl/internal/vtime"
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
// to the owner and a matching AwaitPush to the consumer (Session.push).
// The host stays the control plane: it plans from the validity map, assigns
// both completion events, and wires them into the usual chains, so
// pipelining, wait-lists and failure cascades work as for any queue
// command. Spans no replica owns were never written, so their content is
// zeros (uninitialized OpenCL buffers read deterministically as zeros):
// there is no peer to push them, and the host relays a zero-filled payload
// of the span's length instead — the one host-relay push left.
// The migration is issued for c, the command that needs the replica (see
// serviceQueue). Caller holds b.mu.
func (b *Buffer) migrateP2P(c *cmd, rb *remoteBuf, gaps []mem.Range) error {
	svc, err := b.ctx.serviceQueue(c.dev.node, c)
	if err != nil {
		return err
	}
	for _, g := range gaps {
		plan, leftover := b.planOwners(g)
		for _, ps := range plan {
			ownerSvc, err := b.ctx.serviceQueue(ps.node, c)
			if err != nil {
				return err
			}
			src, err := ownerSvc.begin(nil, ps.rb)
			if err != nil {
				return err
			}
			dst, err := svc.begin(nil, rb)
			if err != nil {
				return err
			}
			b.ctx.sess.push(&src, &dst, ps.rb, rb, ps.r.Lo, ps.r.Hi, b.scaled(ps.r.Len()), 0)
		}
		for _, r := range leftover {
			relay, err := svc.begin(nil, rb)
			if err != nil {
				return err
			}
			modelBytes := b.scaled(r.Len())
			relay.charge(b.hostReadyAt, controlMsgBytes+modelBytes)
			relay.send(trace.KindMigrate, modelBytes, &protocol.WriteBufferReq{
				QueueID:    relay.q.id,
				BufferID:   rb.id,
				Offset:     r.Lo,
				Data:       make([]byte, r.Len()),
				SimArrival: int64(relay.arrival),
				ModelBytes: modelBytes,
				WaitEvents: relay.waits,
			})
			rb.valid.Add(r.Lo, r.Hi)
			rb.setHead(relay.ev)
		}
	}
	return nil
}

// push issues the PushRange/AwaitPush pair that moves [lo, hi) of a
// buffer from the replica srcRB to the replica dstRB, through src on the
// source node's service queue and dst on the consumer's side; both are
// begun and chained. Only the control frames cross the host NIC: the
// payload is charged to the source node's egress link node-side, and the
// host keeps byte accounting. A broadcast hop passes hop, the instant its
// predecessor's payload arrived: the push departs then (DepartAt, cut
// through), and dst traces as the hop itself over the peer-link flight,
// which leaves dst.arrival at the hop's arrival. Caller holds the
// buffer's mu.
func (s *Session) push(src, dst *cmd, srcRB, dstRB *remoteBuf, lo, hi, modelBytes int64, hop vtime.Time) {
	token := s.rt.pushToken.Add(1)
	src.charge(0, controlMsgBytes)
	src.send(trace.KindPushRange, modelBytes, &protocol.PushRangeReq{
		QueueID:      src.q.id,
		BufferID:     srcRB.id,
		PeerName:     dst.dev.node.name,
		PeerBufferID: dstRB.id,
		Token:        token,
		Offset:       lo,
		Size:         hi - lo,
		SimArrival:   int64(src.arrival),
		DepartAt:     int64(hop),
		ModelBytes:   modelBytes,
		WaitEvents:   src.waits,
	})
	// The push becomes the source replica's chain head: a later write there
	// must wait for the device read (anti-dependency), and the in-order
	// service queue sequences later pushes for free. Validity is untouched
	// — a push does not invalidate its source.
	srcRB.setHead(src.ev)

	dst.charge(0, controlMsgBytes)
	req := &protocol.AwaitPushReq{
		QueueID:    dst.q.id,
		BufferID:   dstRB.id,
		Token:      token,
		Offset:     lo,
		Size:       hi - lo,
		SimArrival: int64(dst.arrival),
		ModelBytes: modelBytes,
		WaitEvents: dst.waits,
	}
	kind := trace.KindAwaitPush
	if hop != 0 {
		kind = trace.KindBroadcast
		dst.wireStart, dst.arrival = hop, hop.Add(hopDelay(modelBytes))
	}
	dst.send(kind, modelBytes, req)
	s.chargePeer(modelBytes)
	s.rt.watchPush(dst.dev.node.client.Load(), token, src.ev)
	dstRB.valid.Add(lo, hi)
	dstRB.setHead(dst.ev)
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
