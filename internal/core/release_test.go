package core_test

import (
	"bytes"
	"errors"
	"hash/crc32"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/cluster/inproc"
	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/transport"
)

// TestPollStatusFanout is the regression test for the serial status poll:
// with one node dead, the poll must still refresh the monitor from the
// nodes that answered and report the failure — aggregated, naming the dead
// node — instead of aborting at the first error.
func TestPollStatusFanout(t *testing.T) {
	nodes := serveNodes(t, cluster.Synthetic("pipeline-test", 0, 2, 0, nil), inproc.Options{})
	rt := connect(t, nodes)

	// Put some observable state on node gpu-00.
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs[:1])
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := ctx.CreateBuffer(16)
	if _, err := q.EnqueueWrite(buf, 0, mem.F32Bytes([]float32{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}

	// Kill the second node and poll.
	nodes.Kill("gpu-01")
	err = rt.PollStatus()
	if err == nil {
		t.Fatal("poll with a dead node reported success")
	}
	if !strings.Contains(err.Error(), "gpu-01") {
		t.Fatalf("poll error does not name the dead node: %v", err)
	}

	// The healthy node's status still landed in the monitor.
	for _, v := range rt.Monitor().Snapshot() {
		if v.Key.Node == "gpu-00" && v.Status.BytesMoved > 0 {
			return
		}
	}
	t.Fatal("healthy node's status was not refreshed")
}

// TestQueueReleasePipelined checks the teardown-storm path: a Release
// issued fire-and-forget behind pipelined commands must not disturb them
// (nodes resolve a command's objects at registration, so in-flight work
// holds references), and the release's own ack drains cleanly at Flush.
func TestQueueReleasePipelined(t *testing.T) {
	rt := startRuntime(t, 1)
	ctx, err := rt.OpenSession("default").CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(rt.Devices(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := ctx.CreateBuffer(64)
	evs := make([]*core.Event, 0, 8)
	for i := 0; i < 8; i++ {
		ev, err := q.EnqueueWrite(buf, 0, mem.F32Bytes([]float32{1, 2, 3, 4}))
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	// Release rides the wire behind the writes without a round trip.
	if err := q.Release(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Flush(); err != nil {
		t.Fatalf("pipelined release failed: %v", err)
	}
	for i, ev := range evs {
		if err := ev.Wait(); err != nil {
			t.Fatalf("write %d behind the release failed: %v", i, err)
		}
	}
}

// TestReleasedChainedEventFailsFast pins the failure mode of releasing an
// event a buffer's write chain still references while it is in flight: the
// next enqueue on that buffer must refuse immediately (the node-side event
// record is gone, and a wire wait on it could never resolve — it must not
// regress into a parked node lane). Once an event is known complete it
// drops out of the chain instead (TestReleasedCompletedChainEventDropsOut).
func TestReleasedChainedEventFailsFast(t *testing.T) {
	rt := startRuntime(t, 1)
	ctx, err := rt.OpenSession("default").CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(rt.Devices(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := ctx.CreateBuffer(16)
	ev, err := q.EnqueueWrite(buf, 0, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Release(rt); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWrite(buf, 0, make([]byte, 16)); err == nil {
		t.Fatal("enqueue on a buffer chained to a released in-flight event accepted")
	}
	// Explicit wait lists referencing the released event refuse the same
	// way, complete or not.
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	other, _ := ctx.CreateBuffer(16)
	if _, err := q.EnqueueWrite(other, 0, make([]byte, 16), ev); err == nil {
		t.Fatal("wait list referencing a released event accepted")
	}
}

// TestReleasedCompletedChainEventDropsOut: releasing a finished command's
// event does not make its buffer unusable. The next command on the buffer
// leaves the event off its wire wait list — the node no longer knows it —
// and still starts no earlier, in virtual time, than the command ended,
// even on another queue; the contents are the next command's.
func TestReleasedCompletedChainEventDropsOut(t *testing.T) {
	rt := startRuntime(t, 1)
	dev := rt.Devices(0)[0]
	ctx, err := rt.OpenSession("default").CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	q1, err := ctx.CreateQueue(dev)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ctx.CreateQueue(dev)
	if err != nil {
		t.Fatal(err)
	}
	prog := buildIncr(t, ctx)
	k := incrKernelOf(t, prog)
	const n = 16
	buf, _ := ctx.CreateBuffer(4 * n)
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, int32(n)); err != nil {
		t.Fatal(err)
	}
	// A launch modelled long enough that only a wait, not the wire, can
	// hold the next command back until it ends.
	launch, err := q1.EnqueueKernel(k, []int{n}, []int{n}, nil, &core.LaunchOptions{CostFlops: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q1.Finish(); err != nil {
		t.Fatal(err)
	}
	end := launch.End()
	if err := launch.Release(rt); err != nil {
		t.Fatal(err)
	}
	want := pattern(4*n, 2)
	write, err := q2.EnqueueWrite(buf, 0, want)
	if err != nil {
		t.Fatalf("enqueue on a buffer chained to a released, finished event: %v", err)
	}
	if err := write.Wait(); err != nil {
		t.Fatal(err)
	}
	if start := write.Profile().Start; start < int64(end) {
		t.Fatalf("write starts at %d, before the released launch it follows ended (%d)", start, end)
	}
	got, _, err := q2.EnqueueRead(buf, 0, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("buffer does not hold the write")
	}
	// A copy has no arrival instant to carry the released event's end: it
	// is refused on another queue, and on the event's own queue the queue's
	// order holds it back.
	if _, err := q2.Finish(); err != nil {
		t.Fatal(err)
	}
	writeEnd := write.End()
	if err := write.Release(rt); err != nil {
		t.Fatal(err)
	}
	dst, _ := ctx.CreateBuffer(4 * n)
	if _, err := q1.EnqueueCopy(buf, dst, 0, 0, 4*n); err == nil {
		t.Fatal("copy on another queue than the released event it follows accepted")
	}
	cp, err := q2.EnqueueCopy(buf, dst, 0, 0, 4*n)
	if err != nil {
		t.Fatalf("copy on the released event's own queue: %v", err)
	}
	if err := cp.Wait(); err != nil {
		t.Fatal(err)
	}
	if start := cp.Profile().Start; start < int64(writeEnd) {
		t.Fatalf("copy starts at %d, before the released write it follows ended (%d)", start, writeEnd)
	}
	if got, _, err = q2.EnqueueRead(dst, 0, 4*n); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("copy destination does not hold the write (err %v)", err)
	}
	if err := rt.Flush(); err != nil {
		t.Fatalf("release of the dropped events: %v", err)
	}
}

// TestBufferKernelRelease exercises the new Buffer.Release and
// Kernel.Release: replicas and instances are freed fire-and-forget, the
// released buffer refuses further use, and the drained acks report no
// errors.
func TestBufferKernelRelease(t *testing.T) {
	rt := startRuntime(t, 2)
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	prog := buildIncr(t, ctx)
	k := incrKernelOf(t, prog)
	buf, _ := ctx.CreateBuffer(32)
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, int32(8)); err != nil {
		t.Fatal(err)
	}

	// Touch both nodes so the buffer has two replicas and the kernel two
	// instances.
	for _, dev := range devs {
		q, err := ctx.CreateQueue(dev)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueKernel(k, []int{8}, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := q.Finish(); err != nil {
			t.Fatal(err)
		}
	}

	if err := buf.Release(); err != nil {
		t.Fatal(err)
	}
	if err := k.Release(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Flush(); err != nil {
		t.Fatalf("release storm failed: %v", err)
	}

	// The released objects are unusable — no silent remote recreation.
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWrite(buf, 0, make([]byte, 8)); err == nil {
		t.Fatal("write to released buffer accepted")
	}
	buf2, _ := ctx.CreateBuffer(32)
	if err := k.SetArg(0, buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueKernel(k, []int{8}, nil, nil, nil); err == nil {
		t.Fatal("launch of released kernel accepted")
	}
}

// wireTap sits between a node's transport and its session and records, in
// arrival order, what the registration stage is handed: which event every
// enqueue command claims, the checksum of every write's payload, and which
// IDs every Release names. While held is set, every write waits for it to
// close before the node sees it, and so does everything behind it.
type wireTap struct {
	transport.AsyncHandler
	mu   sync.Mutex
	log  []tapped
	held atomic.Pointer[chan struct{}]
}

// tapped is one recorded request: an enqueue command (event != 0; a write
// also has sum), a Release (ids != nil) or anything else.
type tapped struct {
	event uint64
	sum   uint32
	kind  protocol.ObjectKind
	ids   []uint64
}

func (w *wireTap) HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error)) {
	var rec tapped
	switch op {
	case protocol.OpWriteBuffer:
		var req protocol.WriteBufferReq
		if protocol.DecodeMessage(&req, body) == nil {
			rec.event, rec.sum = req.EventID, crc32.ChecksumIEEE(req.Data)
		}
		if held := w.held.Load(); held != nil {
			<-*held
		}
	case protocol.OpRelease:
		var req protocol.ReleaseReq
		if protocol.DecodeMessage(&req, body) == nil {
			rec.kind = req.Kind
			for i := 0; i < req.Len(); i++ {
				rec.ids = append(rec.ids, req.At(i))
			}
		}
	}
	w.mu.Lock()
	w.log = append(w.log, rec)
	w.mu.Unlock()
	w.AsyncHandler.HandleCallAsync(op, body, done)
}

func (w *wireTap) Close() error {
	if c, ok := w.AsyncHandler.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

func (w *wireTap) snapshot() []tapped {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]tapped(nil), w.log...)
}

// startTappedRuntime is startRuntime with a wireTap in front of every
// node's (single) host session, in node order.
func startTappedRuntime(t *testing.T, gpuNodes int) (*core.Runtime, []*wireTap) {
	t.Helper()
	taps := make([]*wireTap, gpuNodes)
	for i := range taps {
		taps[i] = &wireTap{}
	}
	rt := connect(t, serveNodes(t, cluster.Synthetic("release-test", 0, gpuNodes, 0, nil), inproc.Options{
		Wrap: func(i int, h transport.Handler) transport.Handler {
			taps[i].AsyncHandler = h.(transport.AsyncHandler)
			return taps[i]
		},
	}))
	return rt, taps
}

// TestBackToBackReleaseVectorsArriveIntact: the transport encodes a
// request on its writer goroutine after Go returned, so a release vector's
// IDs must not be overwritten by the next vector for the same node. A
// burst of two full vectors and a partial one, sent back to back with
// nothing in between, reaches the node with exactly the IDs released, in
// release order.
func TestBackToBackReleaseVectorsArriveIntact(t *testing.T) {
	rt, taps := startTappedRuntime(t, 1)
	devs := rt.Devices(0)
	sess := rt.OpenSession("tenant")
	ctx, err := sess.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	const released = 2*256 + 40
	events := make([]*core.Event, released+1) // the newest heads the buffer's chain and stays
	for i := range events {
		if events[i], err = q.EnqueueWrite(buf, 0, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events[:released] {
		if err := ev.Release(rt); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}

	var written, gone []uint64
	vectors := 0
	for _, rec := range taps[0].snapshot() {
		switch {
		case rec.event != 0:
			written = append(written, rec.event)
		case rec.kind == protocol.ObjEvent:
			vectors++
			gone = append(gone, rec.ids...)
		}
	}
	if vectors != 3 {
		t.Fatalf("%d IDs went out in %d release vectors, want 3", len(gone), vectors)
	}
	if !slices.Equal(gone, written[:released]) {
		t.Fatalf("the nodes were asked to release %v..., the host released %v...", gone[:8], written[:8])
	}
}

// TestReleaseVectorsKeepWireOrder releases events in bursts interleaved
// with commands on two nodes and checks, from what the nodes were handed,
// the flush rule of Session.releaseAsync: every ID goes out exactly once,
// in release order, at most 256 to a message and far fewer messages than
// IDs; every command finds on the wire ahead of it exactly the releases
// the host made before issuing it; a release of another kind closes the
// vector before it; and after the last Flush no node holds an event.
func TestReleaseVectorsKeepWireOrder(t *testing.T) {
	rt, taps := startTappedRuntime(t, 2)
	devs := rt.Devices(0)
	sess := rt.OpenSession("tenant")
	ctx, err := sess.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	type lane struct {
		q        *core.Queue
		buf      *core.Buffer
		events   []*core.Event // issued and not yet released, oldest first
		released int           // releases made so far
		// before[k] is how many releases preceded the lane's k-th command.
		before []int
	}
	lanes := make([]*lane, len(devs))
	for i, dev := range devs {
		l := &lane{}
		if l.q, err = ctx.CreateQueue(dev); err != nil {
			t.Fatal(err)
		}
		if l.buf, err = ctx.CreateBuffer(16); err != nil {
			t.Fatal(err)
		}
		lanes[i] = l
	}
	write := func(l *lane) {
		t.Helper()
		ev, err := l.q.EnqueueWrite(l.buf, 0, make([]byte, 16))
		if err != nil {
			t.Fatal(err)
		}
		l.before = append(l.before, l.released)
		l.events = append(l.events, ev)
	}
	// releaseOld releases up to n of the lane's events, never the newest:
	// it heads the buffer's chain until the next write.
	releaseOld := func(l *lane, n int) {
		t.Helper()
		n = min(n, len(l.events)-1)
		for _, ev := range l.events[:n] {
			if err := ev.Release(rt); err != nil {
				t.Fatal(err)
			}
		}
		l.released += n
		l.events = l.events[n:]
	}

	for round := 0; round < 3; round++ {
		// Node 0 takes a burst longer than one vector, node 1 a short one.
		for i := 0; i < 300; i++ {
			write(lanes[0])
		}
		for i := 0; i < 7; i++ {
			write(lanes[1])
		}
		for _, l := range lanes {
			if _, err := l.q.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		// Releases for both nodes alternate; each node's are held until
		// its own next command.
		for len(lanes[0].events) > 1 || len(lanes[1].events) > 1 {
			releaseOld(lanes[0], 50)
			releaseOld(lanes[1], 2)
		}
		write(lanes[0]) // node 0's vectors go first; node 1's stay held
		releaseOld(lanes[0], 1)
		write(lanes[1])
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	// Teardown: the buffers go, which frees the chain heads too; events,
	// then a buffer, then a queue are three kinds, so three messages.
	for _, l := range lanes {
		for _, ev := range l.events {
			if err := ev.Release(rt); err != nil {
				t.Fatal(err)
			}
		}
		l.released += len(l.events)
		if err := l.buf.Release(); err != nil {
			t.Fatal(err)
		}
		if err := l.q.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	for i, tap := range taps {
		l := lanes[i]
		live := make(map[uint64]bool)
		var lastReleased uint64
		commands, released, messages := 0, 0, 0
		var kinds []protocol.ObjectKind
		for _, rec := range tap.snapshot() {
			switch {
			case rec.event != 0:
				if commands >= len(l.before) {
					t.Fatalf("node %d: more commands on the wire than issued", i)
				}
				if released != l.before[commands] {
					t.Fatalf("node %d: command %d (event %d) has %d releases ahead of it on the wire, the host had made %d",
						i, commands, rec.event, released, l.before[commands])
				}
				commands++
				live[rec.event] = true
			case rec.kind == protocol.ObjEvent:
				messages++
				if len(rec.ids) > 256 {
					t.Fatalf("node %d: a release names %d IDs", i, len(rec.ids))
				}
				for _, id := range rec.ids {
					if !live[id] {
						t.Fatalf("node %d: event %d released twice, or before its command", i, id)
					}
					if id <= lastReleased {
						t.Fatalf("node %d: event %d released after event %d", i, id, lastReleased)
					}
					delete(live, id)
					lastReleased = id
					released++
				}
			case rec.ids != nil:
				kinds = append(kinds, rec.kind)
			}
		}
		if commands != len(l.before) || released != l.released {
			t.Fatalf("node %d: %d commands and %d releases on the wire, want %d and %d", i, commands, released, len(l.before), l.released)
		}
		if len(live) != 0 {
			t.Fatalf("node %d: %d events never released: the table is not empty", i, len(live))
		}
		if messages*4 > released && released > 20 {
			t.Fatalf("node %d: %d release messages for %d events", i, messages, released)
		}
		if len(kinds) != 2 || kinds[0] != protocol.ObjBuffer || kinds[1] != protocol.ObjQueue {
			t.Fatalf("node %d: teardown released kinds %v after the events, want buffer then queue", i, kinds)
		}
		t.Logf("node %d: %d events in %d release messages", i, released, messages)
	}
}

// TestHeldReleasesDieWithTheirNode: IDs still held back for a node when it
// is killed are absolved as node loss — the objects died with the node —
// whether the session flushes before recovery has run or after, while a
// genuine failure on the survivor still sticks.
func TestHeldReleasesDieWithTheirNode(t *testing.T) {
	for _, flushFirst := range []bool{true, false} {
		f := newRecoveryFixture(t, 2)
		victim := f.cc.cfg.Nodes[0].Name
		qv := f.queueOn(t, victim)
		qs := f.queueOn(t, f.cc.cfg.Nodes[1].Name)
		scratch, err := f.ctx.CreateBuffer(16)
		if err != nil {
			t.Fatal(err)
		}
		var evs []*core.Event
		for i := 0; i < 5; i++ {
			ev, err := qv.EnqueueWrite(scratch, 0, make([]byte, 16))
			if err != nil {
				t.Fatal(err)
			}
			evs = append(evs, ev)
		}
		if _, err := qv.EnqueueWrite(f.buf, 0, mem.F32Bytes([]float32{1, 2, 3, 4})); err != nil {
			t.Fatal(err)
		}
		if _, err := qv.Finish(); err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if err := ev.Release(f.cc.rt); err != nil { // held: nothing follows them to the victim
				t.Fatal(err)
			}
		}
		f.cc.kill(victim)
		if flushFirst {
			f.cc.awaitDown(victim)
			if err := f.cc.rt.Flush(); err != nil {
				t.Fatalf("releases held for a dead node became a sticky error: %v", err)
			}
		}
		f.mustRead(t, qs, []float32{1, 2, 3, 4}) // recovery replays the victim's write
		if err := f.cc.rt.Flush(); err != nil {
			t.Fatalf("flushFirst=%v: releases held for a dead node became a sticky error: %v", flushFirst, err)
		}
		extra, err := f.ctx.CreateQueue(qs.Device())
		if err != nil {
			t.Fatal(err)
		}
		extra.Release()
		extra.Release()
		if err := f.cc.rt.Flush(); err == nil || !strings.Contains(err.Error(), "unknown queue") {
			t.Fatalf("double release on the survivor: err = %v, want the node's unknown-queue error", err)
		}
	}
}

// TestRemoteErrorSaysOpAndCodeOnce: a node's refusal reaches the host as
// one RemoteError naming the op and the code once, around the node's own
// message.
func TestRemoteErrorSaysOpAndCodeOnce(t *testing.T) {
	sess, q, _, _ := startGatedRuntime(t, newReplyGate(nil, nil))
	q.Release()
	q.Release()
	err := sess.Flush()
	var re *protocol.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("Flush after a double release: %v, want a remote error", err)
	}
	if want := "remote Release: release: unknown queue 2 (code 2)"; re.Error() != want {
		t.Fatalf("remote error reads %q, want %q", re.Error(), want)
	}
}
