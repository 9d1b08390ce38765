package core_test

import (
	"bytes"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/protocol"
)

// These tests pin down the life of a pooled write record (DESIGN.md §11):
// the record that holds EnqueueWrite's private copy goes back to its pool
// when the last of its holders lets go — the command log, each request
// frame that carries the payload, a replay's snapshot — and not before.
// Under -race a recycled record's payload is poisoned, so an early return
// shows as wrong bytes even when no other write takes the record over.

// TestSupersededWriteFrameKeepsItsBytes holds the node while a stream of
// writes supersede each other in the log: the node's reader fills up, the
// host's writer stops, and the frames behind it wait unshipped while the
// log lets go of their records. Every write the node is finally handed
// must carry the bytes its EnqueueWrite was given, bulk frames written in
// place and enveloped mid-size ones alike.
func TestSupersededWriteFrameKeepsItsBytes(t *testing.T) {
	const (
		bulkSize = protocol.BatchableBodyLimit + 4<<10 // a frame of its own
		midSize  = 4 << 10                             // rides in envelopes
		// More frames than the node's reader takes in while its handler is
		// held, so that the last ones are still queued on the host.
		bulkWrites, midWrites = 160, 40
	)
	rt, taps := startTappedRuntime(t, 1)
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("tenant").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := ctx.CreateBuffer(bulkSize)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := ctx.CreateBuffer(midSize)
	if err != nil {
		t.Fatal(err)
	}
	// Allocate both replicas first: a held node never answers the
	// CreateBuffer a buffer's first write waits for.
	for _, b := range []*core.Buffer{bulk, mid} {
		if _, err := q.EnqueueWrite(b, 0, make([]byte, b.Size())); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	taps[0].held.Store(&gate)
	var want []uint32
	for i := 0; i < bulkWrites+midWrites; i++ {
		b := bulk
		if i >= bulkWrites {
			b = mid
		}
		data := pattern(int(b.Size()), byte(i))
		want = append(want, crc32.ChecksumIEEE(data))
		if _, err := q.EnqueueWrite(b, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}

	var got []uint32
	for _, rec := range taps[0].snapshot() {
		if rec.event != 0 {
			got = append(got, rec.sum)
		}
	}
	got = got[len(got)-len(want):] // the writes that allocated the replicas came first
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("write %d of %d reached the node with other bytes than it was given: its record was recycled before its frame was written",
				i, len(want))
		}
	}
}

// TestRecycledRecordReplaysItsOwnBytes: a record that served a superseded
// write serves the next one, and the log replays the bytes of that next
// one. The recovery's replay re-issues the log from a snapshot; a tripwire
// on the survivor releases a buffer whose write the snapshot lists — the
// log lets go of that record — and has another tenant write a payload of
// the same size class, which would take the record over were the
// snapshot not holding it. After the recovery, and after a second one
// with the records recycling meanwhile, every buffer reads back its own
// bytes, the first replay re-issued exactly the two surviving writes, and
// each tenant's log holds each write once. In the retry case the kill is
// met by a write itself: its first attempt fails allocating the replica
// on the dead node, and the withRecovery retry issues the same record
// after the recovery.
func TestRecycledRecordReplaysItsOwnBytes(t *testing.T) {
	const size = 8 << 10
	for _, retry := range []bool{false, true} {
		name := "Recover"
		if retry {
			name = "retried-write"
		}
		t.Run(name, func(t *testing.T) {
			cc := startChaosCluster(t, 3)
			t.Cleanup(cc.close)
			n1, n2, n3 := cc.cfg.Nodes[0].Name, cc.cfg.Nodes[1].Name, cc.cfg.Nodes[2].Name
			write := func(q *core.Queue, b *core.Buffer, data []byte) {
				t.Helper()
				if _, err := q.EnqueueWrite(b, 0, data); err != nil {
					t.Fatal(err)
				}
			}
			finish := func(q *core.Queue) {
				t.Helper()
				if _, err := q.Finish(); err != nil {
					t.Fatal(err)
				}
			}

			// B, a bystander on the third node, opened first.
			bt := openTenant(t, cc.rt, "B", n3)
			bySess := bt.ctx.Session()
			bb, err := bt.ctx.CreateBuffer(size)
			if err != nil {
				t.Fatal(err)
			}
			write(bt.q, bb, pattern(size, 1))
			finish(bt.q)

			// A on all three nodes, writing through the first.
			devs := cc.rt.Devices(0)
			sess := cc.rt.OpenSession("A")
			ctx, err := sess.CreateContext(devs)
			if err != nil {
				t.Fatal(err)
			}
			var qa *core.Queue
			for _, d := range devs {
				if d.Node().Name() == n1 {
					if qa, err = ctx.CreateQueue(d); err != nil {
						t.Fatal(err)
					}
				}
			}
			bufs := make([]*core.Buffer, 4)
			for i := range bufs {
				if bufs[i], err = ctx.CreateBuffer(size); err != nil {
					t.Fatal(err)
				}
			}
			x, y, z, w := bufs[0], bufs[1], bufs[2], bufs[3]
			wantX, wantY, wantW := pattern(size, 12), pattern(size, 13), pattern(size, 14)
			write(qa, x, pattern(size, 11))
			finish(qa)          // shipped and answered: only the log holds the record
			write(qa, x, wantX) // supersedes it: back to the pool
			write(qa, y, wantY) // takes it over
			write(qa, z, pattern(size, 15))
			finish(qa)

			// A's queue re-placed on a survivor — the catch-up's last
			// round trip after it took the log's snapshot and before the
			// replay — triggers the release of z and B's write, then
			// proceeds.
			wantB := pattern(size, 16)
			var once sync.Once
			var fired atomic.Bool
			act := func(forward func(), _ func(protocol.Message, error)) {
				once.Do(func() {
					fired.Store(true)
					if err := z.Release(); err != nil {
						t.Error(err)
					}
					if _, err := bt.q.EnqueueWrite(bb, 0, wantB); err != nil {
						t.Error(err)
					}
				})
				forward()
			}
			cc.trips[n2].arm(protocol.OpCreateQueue, act)
			cc.trips[n3].arm(protocol.OpCreateQueue, act)

			before, byBase := sess.Metrics().ReplayedCommands, bySess.Metrics()
			cc.kill(n1)
			cc.awaitDown(n1)
			if retry {
				write(qa, w, wantW) // allocating w's replica on n1 fails: recover, retry
			} else if err := cc.rt.Recover(); err != nil {
				t.Fatal(err)
			}
			if !fired.Load() {
				t.Fatal("the replay allocated no replica on a survivor: the tripwire never fired")
			}
			if got := sess.Metrics().ReplayedCommands - before; got != 2 {
				t.Fatalf("the replay re-issued %d commands, want 2 (x's and y's writes; z was released)", got)
			}
			// Each write of size is logged once, on top of what the tenant's
			// log held before the kill.
			logged := func(s *core.Session, base core.Metrics, writes int64) {
				t.Helper()
				m := s.Metrics()
				if entries, bytes := base.LogEntries+writes, base.LogBytes+writes*size; m.LogEntries != entries || m.LogBytes != bytes {
					t.Fatalf("tenant %s logs %d entries of %d bytes, want %d of %d",
						s.Tenant(), m.LogEntries, m.LogBytes, entries, bytes)
				}
			}
			owned := map[*core.Buffer][]byte{x: wantX, y: wantY}
			if retry {
				owned[w] = wantW
			}
			logged(sess, core.Metrics{}, int64(len(owned)))
			logged(bySess, byBase, 0)
			check := func() {
				t.Helper()
				for b, want := range owned {
					got, _, err := qa.EnqueueRead(b, 0, size)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("tenant A reads back other bytes than it wrote (pattern %d)", want[0])
					}
				}
				got, _, err := bt.q.EnqueueRead(bb, 0, size)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantB) {
					t.Fatal("tenant B reads back other bytes than it wrote")
				}
			}
			check()

			// Recycle records of the same size class, then have A replay its
			// log again: a record that went back to its pool while the log
			// still listed it would now hold another write's bytes.
			for i := 0; i < 8; i++ {
				write(bt.q, bb, pattern(size, byte(20+i)))
			}
			write(bt.q, bb, wantB)
			finish(bt.q)
			cc.kill(n2)
			cc.awaitDown(n2)
			if err := cc.rt.Recover(); err != nil {
				t.Fatal(err)
			}
			check()
			logged(sess, core.Metrics{}, int64(len(owned)))
			logged(bySess, byBase, 0)
		})
	}
}

// TestPooledRequestsDieWithTheirNode: a write's and a launch's request come
// from pools and belong to the transport from Start on; the connection's
// writer recycles each once it has staged or written it, and a request its
// dead connection drops is never recycled. A node dies while pooled write
// and launch requests sit in its host's coalescer queue, behind frames its
// stalled handler left unread, and the recovery replays the log onto the
// survivors. Every buffer must read back the bytes the host's model says
// it holds, and under the race detector no request may be recycled twice
// (core.retire panics).
func TestPooledRequestsDieWithTheirNode(t *testing.T) {
	const (
		// Frames of their own, more than the node's reader takes in while
		// its handler stalls, so that what follows stays on the host.
		fillSize, fills = protocol.BatchableBodyLimit + 4<<10, 160
		tiles           = 20
	)
	cc := startChaosCluster(t, 3)
	t.Cleanup(cc.close)
	n1 := cc.cfg.Nodes[0].Name
	devs := cc.rt.Devices(0)
	ctx, err := cc.rt.OpenSession("A").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	var q *core.Queue
	for _, d := range devs {
		if d.Node().Name() == n1 && q == nil {
			if q, err = ctx.CreateQueue(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	prog, err := ctx.CreateProgram(incrSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	// A 256 B write has an unpooled record, a 4 KiB one a pooled record;
	// both have pooled requests.
	fill, err := ctx.CreateBuffer(fillSize)
	if err != nil {
		t.Fatal(err)
	}
	want := map[*core.Buffer][]byte{fill: pattern(fillSize, 0)}
	kernels := map[*core.Buffer]*core.Kernel{}
	for _, elems := range []int{64, 1024} {
		b, err := ctx.CreateBuffer(int64(4 * elems))
		if err != nil {
			t.Fatal(err)
		}
		k, err := prog.CreateKernel("incr")
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range []any{b, int32(elems)} {
			if err := k.SetArg(i, v); err != nil {
				t.Fatal(err)
			}
		}
		kernels[b], want[b] = k, make([]byte, 4*elems)
	}
	// Allocate the replicas and the node's kernels first: a stalled node
	// never answers the creates a first write or launch waits for.
	for b, data := range want {
		if _, err := q.EnqueueWrite(b, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	for b, k := range kernels {
		if _, err := q.EnqueueKernel(k, []int{int(b.Size() / 4)}, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}

	// The node's handler stalls on the first write and never answers it.
	gate := make(chan struct{})
	cc.trips[n1].arm(protocol.OpWriteBuffer, func(func(), func(protocol.Message, error)) { <-gate })
	for i := 0; i < fills; i++ {
		want[fill] = pattern(fillSize, byte(i))
		if _, err := q.EnqueueWrite(fill, 0, want[fill]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < tiles; i++ {
		for b, k := range kernels {
			vals := make([]float32, b.Size()/4)
			for j := range vals {
				vals[j] = float32(i*10000 + j)
			}
			if _, err := q.EnqueueWrite(b, 0, mem.F32Bytes(vals)); err != nil {
				t.Fatal(err)
			}
			if _, err := q.EnqueueKernel(k, []int{len(vals)}, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			for j := range vals {
				vals[j]++
			}
			want[b] = mem.F32Bytes(vals)
		}
	}

	// Closing the node's server waits for its stalled handler: let the
	// handler go once the host has seen the connection die.
	crashed := make(chan struct{})
	go func() {
		cc.trips[n1].crash()
		close(crashed)
	}()
	cc.awaitDown(n1)
	close(gate)
	<-crashed
	cc.alive[n1] = false
	if err := cc.rt.Recover(); err != nil {
		t.Fatal(err)
	}
	for b, data := range want {
		got, _, err := q.EnqueueRead(b, 0, b.Size())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("a %d-byte buffer reads back other bytes than the host's model after the recovery", b.Size())
		}
	}
}
