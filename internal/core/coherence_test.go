package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/mem"
)

// patternBytes builds a deterministic non-zero test pattern.
func patternBytes(n int, tag byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = tag ^ byte(i*7+1)
	}
	return out
}

// TestPartialWriteOnStaleReplica is the regression test for the
// stale-data bug the range layer fixes: a partial EnqueueWrite onto a
// node whose replica is stale must not validate the unwritten remainder.
// Pre-range, the whole-replica flag did exactly that, so the read-back on
// node B returned zeros for the half written on node A.
func TestPartialWriteOnStaleReplica(t *testing.T) {
	rt := startRuntime(t, 2)
	ctx, err := rt.OpenSession("default").CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	qA, err := ctx.CreateQueue(rt.Devices(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	qB, err := ctx.CreateQueue(rt.Devices(0)[1])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}

	first := patternBytes(8, 0xA0)
	second := patternBytes(8, 0xB0)
	// First half lands on node A (host and A hold [0,8)).
	if _, err := qA.EnqueueWrite(buf, 0, first); err != nil {
		t.Fatal(err)
	}
	// Second half lands on node B: B's fresh replica receives only [8,16),
	// so its [0,8) bytes are stale zeros until a migration fills them.
	if _, err := qB.EnqueueWrite(buf, 8, second); err != nil {
		t.Fatal(err)
	}

	got, _, err := qB.EnqueueRead(buf, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, first...), second...)
	if !bytes.Equal(got, want) {
		t.Fatalf("read-back on half-written node B = %x, want %x (stale bytes exposed)", got, want)
	}
}

// TestBroadcastInvalidatesNonHopReplicas: a node that holds a replica but
// is not in the broadcast's hop set must not keep serving its
// pre-broadcast bytes. Pre-range, Broadcast never touched non-hop
// replicas, so the re-read on node C returned the old payload.
func TestBroadcastInvalidatesNonHopReplicas(t *testing.T) {
	rt := startRuntime(t, 3)
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	queues := make([]*core.Queue, 3)
	for i, d := range devs {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			t.Fatal(err)
		}
		queues[i] = q
	}
	buf, err := ctx.CreateBuffer(64)
	if err != nil {
		t.Fatal(err)
	}

	old := patternBytes(64, 0x11)
	if _, err := ctx.Broadcast(buf, old, queues); err != nil {
		t.Fatal(err)
	}
	// Second broadcast skips node C.
	fresh := patternBytes(64, 0x22)
	if _, err := ctx.Broadcast(buf, fresh, queues[:2]); err != nil {
		t.Fatal(err)
	}

	got, _, err := queues[2].EnqueueRead(buf, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatalf("non-hop node served %x, want the broadcast payload %x", got[:8], fresh[:8])
	}
}

// TestBroadcastFailedHopLeavesStateUntouched: when a hop beyond the first
// cannot be issued (here: its queue carries a sticky error), Broadcast
// must fail before mutating any buffer state. Pre-range the host shadow
// was updated and hop 0 issued before the loop reached the failing hop,
// leaving the cluster half-broadcast.
func TestBroadcastFailedHopLeavesStateUntouched(t *testing.T) {
	rt := startRuntime(t, 2)
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	qA, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	qB, err := ctx.CreateQueue(devs[1])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(64)
	if err != nil {
		t.Fatal(err)
	}
	old := patternBytes(64, 0x33)
	if _, err := ctx.Broadcast(buf, old, []*core.Queue{qA, qB}); err != nil {
		t.Fatal(err)
	}

	// Poison qB's pipeline: a launch indexing past its 4-float buffer panics
	// on the node, and Finish latches the sticky queue error.
	prog := buildIncr(t, ctx)
	scratch, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	k := incrKernelOf(t, prog)
	k.SetArg(0, scratch)
	k.SetArg(1, int32(8))
	if _, err := qB.EnqueueKernel(k, []int{8}, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := qB.Finish(); err == nil {
		t.Fatal("out-of-bounds launch accepted")
	}

	// The broadcast must refuse at hop 1 (i > 0) without touching state.
	fresh := patternBytes(64, 0x44)
	if _, err := ctx.Broadcast(buf, fresh, []*core.Queue{qA, qB}); err == nil {
		t.Fatal("broadcast over a sticky-failed queue accepted")
	}
	got, _, err := qA.EnqueueRead(buf, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("failed broadcast leaked state: node A reads %x, want pre-broadcast %x", got[:8], old[:8])
	}
}

// migrationFixture is a two-node context with one queue per node, a
// source buffer of size functional bytes modelled as 64× that on the wire,
// and a same-size scratch buffer: copying the source into the scratch on
// node B is a consumer that makes the whole source resident on B and
// moves nothing through the host NIC itself.
type migrationFixture struct {
	rt       *core.Runtime
	qA, qB   *core.Queue
	src, dst *core.Buffer
}

const (
	migSize  = 4096
	migScale = 64
)

func newMigrationFixture(t *testing.T) *migrationFixture {
	t.Helper()
	rt := startRuntime(t, 2)
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	f := &migrationFixture{rt: rt}
	if f.qA, err = ctx.CreateQueue(devs[0]); err != nil {
		t.Fatal(err)
	}
	if f.qB, err = ctx.CreateQueue(devs[1]); err != nil {
		t.Fatal(err)
	}
	if f.src, err = ctx.CreateBuffer(migSize); err != nil {
		t.Fatal(err)
	}
	f.src.SetModelSize(migSize * migScale)
	if f.dst, err = ctx.CreateBuffer(migSize); err != nil {
		t.Fatal(err)
	}
	return f
}

// consumeOnB copies the whole source into the scratch buffer on node B and
// returns the growth of the modelled host-NIC and peer-link bytes.
func (f *migrationFixture) consumeOnB(t *testing.T) (host, peer int64) {
	t.Helper()
	before := f.rt.Metrics()
	if _, err := f.qB.EnqueueCopy(f.src, f.dst, 0, 0, migSize); err != nil {
		t.Fatal(err)
	}
	after := f.rt.Metrics()
	host = after.HostWireBytes - before.HostWireBytes
	peer = after.PeerWireBytes - before.PeerWireBytes
	if wire := after.WireBytes - before.WireBytes; wire != host+peer {
		t.Fatalf("wire bytes grew %d, host %d + peer %d", wire, host, peer)
	}
	return host, peer
}

// checkOnB reads the scratch buffer back on node B against want.
func (f *migrationFixture) checkOnB(t *testing.T, want []byte) {
	t.Helper()
	got, _, err := f.qB.EnqueueRead(f.dst, 0, migSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("consumer on node B copied different contents")
	}
}

// TestPartialUpdateMovesOnlyStaleRange: after a partial write on node A,
// a consumer on node B whose replica is otherwise current migrates exactly
// the stale range, node to node — the peer links carry that range's
// modelled bytes, and the host NIC only the push/await control frames.
// (This is the invariant the retired coherence experiment's delta-versus-
// full comparison stood for.)
func TestPartialUpdateMovesOnlyStaleRange(t *testing.T) {
	f := newMigrationFixture(t)
	want := patternBytes(migSize, 0x5A)
	if _, err := f.qA.EnqueueWrite(f.src, 0, want); err != nil {
		t.Fatal(err)
	}
	f.consumeOnB(t)

	const lo, hi = 1024, 1536
	update := patternBytes(hi-lo, 0xC3)
	if _, err := f.qA.EnqueueWrite(f.src, lo, update); err != nil {
		t.Fatal(err)
	}
	copy(want[lo:], update)
	host, peer := f.consumeOnB(t)
	if exp := int64(hi-lo) * migScale; peer != exp {
		t.Fatalf("peer links carried %d modelled bytes, want the stale range's %d", peer, exp)
	}
	if exp := int64(2 * core.ControlMsgBytes); host != exp {
		t.Fatalf("host NIC carried %d modelled bytes, want two control frames (%d)", host, exp)
	}
	f.checkOnB(t, want)
}

// TestFullyStaleConsumerMovesBufferOnce: a consumer whose replica is
// wholly stale moves the buffer exactly once — one push of every modelled
// byte over the peer links, two control frames on the host NIC — and a
// second consumer on the same node moves nothing. (The retired coherence
// experiment's fully-stale workload.)
func TestFullyStaleConsumerMovesBufferOnce(t *testing.T) {
	f := newMigrationFixture(t)
	want := patternBytes(migSize, 0x3C)
	if _, err := f.qA.EnqueueWrite(f.src, 0, want); err != nil {
		t.Fatal(err)
	}
	host, peer := f.consumeOnB(t)
	if exp := int64(migSize * migScale); peer != exp {
		t.Fatalf("peer links carried %d modelled bytes, want the buffer's %d", peer, exp)
	}
	if exp := int64(2 * core.ControlMsgBytes); host != exp {
		t.Fatalf("host NIC carried %d modelled bytes, want two control frames (%d)", host, exp)
	}
	if host, peer := f.consumeOnB(t); host != 0 || peer != 0 {
		t.Fatalf("a current replica moved again: host %d, peer %d modelled bytes", host, peer)
	}
	f.checkOnB(t, want)
}

// checkNoHostCopyNeeded asserts the invariant that lets the host keep no
// copy of buffer contents, at a boundary between two operations, for every
// buffer against the byte ranges the workload has written to it:
//
//   - every written range is valid on at least one live replica — skipped
//     while a replica sits on a dead node that recovery has yet to replay;
//   - no span the host relay could ship (as zeros) was ever written.
//
// The workloads release nothing, and recovery replays the whole log before
// the operation that triggered it returns, so "written since the buffer was
// created" is "written since recovery last reset it" at every boundary.
func checkNoHostCopyNeeded(t *testing.T, where string, bufs []*core.Buffer, written []mem.RangeSet) {
	t.Helper()
	for i, b := range bufs {
		if valid, awaitsRecovery := b.LiveValid(); !awaitsRecovery {
			for _, r := range written[i].Spans() {
				if !valid.Contains(r.Lo, r.Hi) {
					t.Fatalf("%s: buffer %d: written %v is not valid on any live replica (valid %v)",
						where, i, r, &valid)
				}
			}
		}
		for _, r := range b.RelaySpans() {
			if written[i].Intersects(r.Lo, r.Hi) {
				t.Fatalf("%s: buffer %d: the relay would ship zeros for %v, which overlaps written %v",
					where, i, r, &written[i])
			}
		}
	}
}

// TestCoherenceOracle mirrors a random sequence of partial writes, partial
// reads, device copies and subset broadcasts across a 3-node cluster
// against plain in-memory byte slices: every read must be byte-identical
// to the mirror, whatever interleaving of migrations it triggered — peer
// pushes of owned ranges and relay pushes of ranges no replica owns. After
// every operation the host-free invariant (checkNoHostCopyNeeded) holds.
func TestCoherenceOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCoherenceOracle(t, seed)
		})
	}
}

func runCoherenceOracle(t *testing.T, seed int64) {
	const (
		bufSize = 64
		numBufs = 2
		steps   = 80
	)
	rt := startRuntime(t, 3)
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	queues := make([]*core.Queue, len(devs))
	for i, d := range devs {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			t.Fatal(err)
		}
		queues[i] = q
	}
	bufs := make([]*core.Buffer, numBufs)
	mirror := make([][]byte, numBufs)
	written := make([]mem.RangeSet, numBufs)
	for i := range bufs {
		b, err := ctx.CreateBuffer(bufSize)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
		mirror[i] = make([]byte, bufSize)
	}

	rng := rand.New(rand.NewSource(seed))
	randRange := func() (int64, int64) {
		lo := rng.Int63n(bufSize)
		n := 1 + rng.Int63n(bufSize-lo)
		return lo, n
	}
	for step := 0; step < steps; step++ {
		q := queues[rng.Intn(len(queues))]
		bi := rng.Intn(numBufs)
		switch op := rng.Intn(100); {
		case op < 40: // partial write
			off, n := randRange()
			data := make([]byte, n)
			rng.Read(data)
			if _, err := q.EnqueueWrite(bufs[bi], off, data); err != nil {
				t.Fatalf("seed %d step %d: write: %v", seed, step, err)
			}
			copy(mirror[bi][off:], data)
			written[bi].Add(off, off+n)
		case op < 70: // partial read, checked against the mirror
			off, n := randRange()
			got, _, err := q.EnqueueRead(bufs[bi], off, n)
			if err != nil {
				t.Fatalf("seed %d step %d: read: %v", seed, step, err)
			}
			if !bytes.Equal(got, mirror[bi][off:off+n]) {
				t.Fatalf("seed %d step %d: read [%d,%d) on %s = %x, want %x",
					seed, step, off, off+n, q.Device().Key(), got, mirror[bi][off:off+n])
			}
		case op < 85: // device-side copy between the two buffers
			src, dst := bi, (bi+1)%numBufs
			srcOff, n := randRange()
			dstOff := rng.Int63n(bufSize - n + 1)
			if _, err := q.EnqueueCopy(bufs[src], bufs[dst], srcOff, dstOff, n); err != nil {
				t.Fatalf("seed %d step %d: copy: %v", seed, step, err)
			}
			copy(mirror[dst][dstOff:dstOff+n], mirror[src][srcOff:srcOff+n])
			written[dst].Add(dstOff, dstOff+n)
		case op < 95: // broadcast to a random non-empty queue subset
			var subset []*core.Queue
			for _, cand := range queues {
				if rng.Intn(2) == 0 {
					subset = append(subset, cand)
				}
			}
			if len(subset) == 0 {
				subset = append(subset, q)
			}
			payload := make([]byte, bufSize)
			rng.Read(payload)
			if _, err := ctx.Broadcast(bufs[bi], payload, subset); err != nil {
				t.Fatalf("seed %d step %d: broadcast: %v", seed, step, err)
			}
			copy(mirror[bi], payload)
			written[bi].Add(0, bufSize)
		default: // a sync point; functionally invisible
			if _, err := q.Finish(); err != nil {
				t.Fatalf("seed %d step %d: finish: %v", seed, step, err)
			}
		}
		checkNoHostCopyNeeded(t, fmt.Sprintf("seed %d step %d", seed, step), bufs, written)
	}

	// Every node must agree with the mirror on every buffer, in full.
	for bi, b := range bufs {
		for qi, q := range queues {
			got, _, err := q.EnqueueRead(b, 0, bufSize)
			if err != nil {
				t.Fatalf("seed %d: final read buf %d on queue %d: %v", seed, bi, qi, err)
			}
			if !bytes.Equal(got, mirror[bi]) {
				t.Fatalf("seed %d: final read buf %d on %s = %x, want %x",
					seed, bi, q.Device().Key(), got, mirror[bi])
			}
		}
	}
}

// TestFailedWriteLeavesReplicasUntouched: an EnqueueWrite that fails after
// argument validation (here: a wait list referencing a released event)
// must not invalidate the replica holding the range's current data — the
// same no-half-mutation rule Broadcast follows.
func TestFailedWriteLeavesReplicasUntouched(t *testing.T) {
	rt := startRuntime(t, 2)
	ctx, err := rt.OpenSession("default").CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	qA, err := ctx.CreateQueue(rt.Devices(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	qB, err := ctx.CreateQueue(rt.Devices(0)[1])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	old := patternBytes(16, 0x55)
	if _, err := qA.EnqueueWrite(buf, 0, old); err != nil {
		t.Fatal(err)
	}
	ev, err := qA.EnqueueWrite(scratch, 0, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ev.Release(rt); err != nil {
		t.Fatal(err)
	}
	if _, err := qA.EnqueueWrite(buf, 0, patternBytes(16, 0x66), ev); err == nil {
		t.Fatal("write waiting on a released event accepted")
	}
	// Reading through node B migrates from node A's replica: it must still
	// be valid and hold the old contents, not zeros relayed for a range
	// the failed write left valid nowhere.
	got, _, err := qB.EnqueueRead(buf, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("failed write lost the old contents: %x, want %x", got, old)
	}
}

// TestHostRangeOverflow: host-side bounds checks must reject offsets that
// would wrap offset+size past MaxInt64 instead of panicking on the slice.
func TestHostRangeOverflow(t *testing.T) {
	rt := startRuntime(t, 1)
	ctx, err := rt.OpenSession("default").CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(rt.Devices(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	const maxI64 = int64(^uint64(0) >> 1)
	if _, err := q.EnqueueWrite(buf, maxI64-1, []byte{1, 2, 3, 4}); err == nil {
		t.Fatal("wrapping write offset accepted")
	}
	if _, _, err := q.EnqueueRead(buf, maxI64-1, 4); err == nil {
		t.Fatal("wrapping read offset accepted")
	}
	if _, err := q.EnqueueCopy(buf, buf2, maxI64-1, 0, 4); err == nil {
		t.Fatal("wrapping copy source offset accepted")
	}
	if _, err := q.EnqueueCopy(buf, buf2, 0, maxI64-1, 4); err == nil {
		t.Fatal("wrapping copy destination offset accepted")
	}
}
