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
// Unlike a write's, that copy is not pooled: the collector has it.
func (c *Context) Broadcast(b *Buffer, data []byte, queues []*Queue) ([]*Event, error) {
	owned := append([]byte(nil), data...)
	return withRecovery(c.sess, func() ([]*Event, error) {
		return c.broadcast(b, owned, queues)
	})
}

// broadcast is the non-recovering Broadcast internal; replay drives it
// directly. data must never change again (see writeLog.enqueue).
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
		dev := q.Device()
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
		rb  *remoteBuf
		c   cmd // the hop's receive, on its queue
		fwd cmd // the forward to the next hop (all but the last hop)
	}
	plan := make([]hop, 0, len(hops))
	for i, q := range hops {
		var h hop
		var err error
		if h.c, err = q.begin(nil); err != nil {
			return nil, err
		}
		if h.rb, err = b.remoteOn(&h.c); err != nil {
			return nil, err
		}
		if err = h.c.after(h.rb); err != nil {
			return nil, err
		}
		if i < len(hops)-1 {
			// Forwarding rides the node's single service lane so link
			// bookings stay totally ordered; begun here because a refused
			// or dead service queue must not fail the loop midway.
			svc, err := c.serviceQueue(h.c.dev.node, &h.c)
			if err != nil {
				return nil, err
			}
			if h.fwd, err = svc.begin(nil); err != nil {
				return nil, err
			}
		}
		plan = append(plan, h)
	}

	events := make([]*Event, 0, len(plan))
	for i := range plan {
		h := &plan[i]
		if i == 0 {
			// First hop crosses the host NIC. Every other replica loses the
			// buffer; the later hops receive it back.
			h.c.charge(b.hostReadyAt, controlMsgBytes+b.modelSize)
			h.c.send(trace.KindBroadcast, b.modelSize, &protocol.WriteBufferReq{
				QueueID:    h.c.q.id,
				BufferID:   h.rb.id,
				Offset:     0,
				Data:       data,
				SimArrival: int64(h.c.arrival),
				ModelBytes: b.modelSize,
				WaitEvents: h.c.waits,
			})
			b.define(h.c.dev.node, h.rb, 0, b.size, h.c.ev)
		} else {
			// Chain hop over the node links: the previous node forwards
			// the buffer it just received, cut through at the instant it
			// arrived there. The forward waits on that receive as a
			// functional edge only: it must not read the replica before
			// the receive has copied the data in, while virtual timing
			// ignores it — DepartAt models the cut-through overlap with
			// that device write.
			prev := &plan[i-1]
			prev.fwd.waits = append(prev.fwd.waits, int64(prev.c.ev.remoteID))
			c.sess.push(&prev.fwd, &h.c, prev.rb, h.rb, 0, b.size, b.modelSize, prev.c.arrival)
		}
		events = append(events, h.c.ev)
	}
	c.sess.logCommand(&broadcastLog{
		c:    c,
		b:    b,
		data: data,
		qs:   append([]*Queue(nil), queues...),
	})
	return events, nil
}
