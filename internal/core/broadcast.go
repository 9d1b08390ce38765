package core

import (
	"fmt"
	"time"

	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/vtime"
)

// broadcastChunkBytes is the pipelining granularity of chain broadcasts:
// once a node has received the first chunk it starts forwarding to the next
// node, so each additional hop adds one chunk's latency rather than a full
// retransmission.
const broadcastChunkBytes = 8 << 20

// hopDelay models the pipeline fill per chain hop.
func hopDelay(modelBytes int64) vtime.Duration {
	chunk := modelBytes
	if chunk > broadcastChunkBytes {
		chunk = broadcastChunkBytes
	}
	secs := float64(chunk) / sim.GigabitBytesPerSec
	return vtime.Duration(secs*1e9) + 150*time.Microsecond
}

// Broadcast writes data into b on every queue's node using a pipelined
// node-to-node chain: the host sends one copy over its NIC to the first
// node, which forwards chunks to the second while still receiving, and so
// on. Completion at hop i trails hop i-1 by one chunk, so distributing to n
// nodes costs one transfer plus n-1 pipeline fills instead of n full
// transfers through the host NIC — one of the "complex inter-node data
// transfer schemes" the backbone implements (paper §III-C).
//
// The chain is real: hop 0 receives the payload from the host, and every
// later hop receives it from its predecessor through a PushRange/AwaitPush
// pair riding the node links — the host only issues control frames.
// DepartAt carries the host-planned cut-through instant, so forwarding
// overlaps the predecessor's device write exactly as the hopDelay
// arithmetic models.
//
// The hop arrival instants are computed host-side, so every hop
// is issued through the async path without waiting for any response:
// fan-out to n nodes costs zero round trips instead of n. The returned
// events resolve as the nodes answer. A crash-induced failure recovers
// and retries transparently. The caller may reuse data as soon as the call
// returns: one private copy serves the command log and every hop's frame.
func (c *Context) Broadcast(b *Buffer, data []byte, queues []*Queue) ([]*Event, error) {
	owned := append([]byte(nil), data...)
	var events []*Event
	err := c.sess.withRecovery(func() error {
		var berr error
		events, berr = c.broadcast(b, owned, queues)
		return berr
	})
	return events, err
}

// broadcast is the non-recovering Broadcast internal; replay drives it
// directly. data must never change again (see enqueueWrite).
func (c *Context) broadcast(b *Buffer, data []byte, queues []*Queue) ([]*Event, error) {
	if len(queues) == 0 {
		return nil, fmt.Errorf("core: broadcast needs at least one queue")
	}
	if int64(len(data)) != b.size {
		return nil, fmt.Errorf("core: broadcast needs full buffer contents (%d bytes, got %d)",
			b.size, len(data))
	}
	if b.ctx.sess != c.sess {
		return nil, fmt.Errorf("core: broadcast into buffer of tenant %q: %w", b.ctx.sess.tenant, ErrCrossSession)
	}
	// One hop per distinct node, in queue order.
	seen := make(map[*NodeHandle]bool, len(queues))
	hops := make([]*Queue, 0, len(queues))
	for _, q := range queues {
		if q.ctx.sess != c.sess {
			return nil, fmt.Errorf("core: broadcast through queue of tenant %q: %w", q.ctx.sess.tenant, ErrCrossSession)
		}
		dev, _ := q.binding()
		if !seen[dev.node] {
			seen[dev.node] = true
			hops = append(hops, q)
		}
	}

	b.mu.Lock()
	defer b.mu.Unlock()

	// Validate every hop up front — sticky queue errors, replica
	// allocation (a synchronous call that can fail), chain integrity —
	// before mutating any buffer state. Failing mid-loop would strand the
	// buffer half-broadcast: earlier hops issued, later replicas still
	// holding (and still marked with) old data.
	type hop struct {
		q      *Queue
		dev    *DeviceRef // q's binding, snapshotted once for the whole plan
		qid    uint64
		rb     *remoteBuf
		chain  []int64
		floor  vtime.Time // what chain imposes beyond its wire waits
		svc    *Queue     // forwarding source lane (all but the last hop)
		svcDev *DeviceRef
		svcID  uint64
	}
	plan := make([]hop, 0, len(hops))
	for i, q := range hops {
		if err := q.stickyErr(); err != nil {
			return nil, err
		}
		dev, qid := q.binding()
		rb, err := b.remoteOn(dev.node)
		if err != nil {
			return nil, err
		}
		chain, floor, err := rb.chainWaits(nil, 0)
		if err != nil {
			return nil, err
		}
		h := hop{q: q, dev: dev, qid: qid, rb: rb, chain: chain, floor: floor}
		if i < len(hops)-1 {
			// Forwarding rides the node's single service lane so link
			// bookings stay totally ordered; created here because it is a
			// fallible round trip and must not fail mid-loop.
			svc, err := c.serviceQueue(dev.node)
			if err != nil {
				return nil, err
			}
			if err := svc.stickyErr(); err != nil {
				return nil, err
			}
			h.svc = svc
			h.svcDev, h.svcID = svc.binding()
		}
		plan = append(plan, h)
	}

	events := make([]*Event, 0, len(plan))
	var prevArrival vtime.Time
	var prevID uint64
	for i, h := range plan {
		node := h.dev.node
		var arrival vtime.Time
		var wireStart vtime.Time // hop payload departure, for the wire span
		var id uint64
		var ev *Event
		if i == 0 {
			// First hop crosses the host NIC.
			wireStart, arrival = c.sess.chargeNIC(vtime.Max(b.hostReadyAt, h.floor), controlMsgBytes+b.modelSize)
			ev = &Event{dev: h.dev, queue: h.q,
				trace: c.sess.traceCmd(trace.KindBroadcast, h.dev, h.qid, b.modelSize, wireStart, arrival)}
			id = c.sess.issueEvent(ev, &protocol.WriteBufferReq{
				QueueID:    h.qid,
				BufferID:   h.rb.id,
				Offset:     0,
				Data:       data,
				SimArrival: int64(arrival),
				ModelBytes: b.modelSize,
				WaitEvents: h.chain,
			})
		} else {
			// Chain hop over the node links: the previous node forwards
			// the buffer it just received, cut through at DepartAt.
			prev := plan[i-1]
			wireStart, arrival = prevArrival, prevArrival.Add(hopDelay(b.modelSize))
			token := c.rt.nextPushToken()
			pushCtrlStart, pushCtrl := c.sess.chargeNIC(0, controlMsgBytes)
			pushEv := &Event{dev: prev.svcDev, queue: prev.svc,
				trace: c.sess.traceCmd(trace.KindPushRange, prev.svcDev, 0, b.modelSize, pushCtrlStart, pushCtrl)}
			pushEv.waits[0] = int64(prevID)
			pushID := c.sess.issueEvent(pushEv, &protocol.PushRangeReq{
				QueueID:      prev.svcID,
				BufferID:     prev.rb.id,
				PeerName:     node.name,
				PeerBufferID: h.rb.id,
				Token:        token,
				Offset:       0,
				Size:         b.size,
				SimArrival:   int64(pushCtrl),
				DepartAt:     int64(prevArrival),
				ModelBytes:   b.modelSize,
				// Functional edge only: the forward must not read the
				// replica before the previous hop's receive has copied the
				// data in. Virtual timing ignores it — DepartAt models the
				// cut-through overlap with that device write.
				WaitEvents: pushEv.waits[:1],
			})
			prev.svc.track(pushEv)
			// Anti-dependency: a later write to the forwarder's replica
			// waits for the forward to have read it.
			prev.rb.lastEvent = pushID
			prev.rb.lastEv = pushEv

			_, awaitCtrl := c.sess.chargeNIC(h.floor, controlMsgBytes)
			// The hop's wire span is the peer-link flight [prevArrival,
			// arrival], not the tiny control frame.
			ev = &Event{dev: h.dev, queue: h.q,
				trace: c.sess.traceCmd(trace.KindBroadcast, h.dev, h.qid, b.modelSize, wireStart, arrival)}
			id = c.sess.issueEvent(ev, &protocol.AwaitPushReq{
				QueueID:    h.qid,
				BufferID:   h.rb.id,
				Token:      token,
				Offset:     0,
				Size:       b.size,
				SimArrival: int64(awaitCtrl),
				ModelBytes: b.modelSize,
				WaitEvents: h.chain,
			})
			c.sess.chargePeer(b.modelSize)
			c.rt.watchPush(node.client.Load(), token, pushEv)
		}
		prevArrival = arrival
		prevID = id

		h.q.track(ev)
		h.rb.valid.Reset()
		h.rb.valid.Add(0, b.size)
		h.rb.lastEvent = id
		h.rb.lastEv = ev
		events = append(events, ev)
	}

	// Replicas on nodes outside the hop set now hold stale data in full:
	// a later consumer there must re-migrate from a hop replica instead of
	// reading the pre-broadcast bytes.
	for node, orb := range b.remote {
		if !seen[node] {
			orb.valid.Reset()
		}
	}
	c.sess.logCommand(&broadcastLog{
		c:    c,
		b:    b,
		data: data,
		qs:   append([]*Queue(nil), queues...),
	})
	return events, nil
}
