package node

import (
	"bytes"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/transport"
)

// These tests pin down the node's side of payload ownership (DESIGN.md
// §11): request bodies are viewed, not copied, and nothing the node keeps
// past a command's completion may reference one.

// heapAfterGC returns the live heap after two forced collections (the
// second empties what the first moved to sync.Pool victim caches).
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDrainedLaneReleasesRequestBodies: once a burst of bulk writes has
// completed and its objects are released, the node holds none of the
// request bodies any more. A lane used to pop with jobs = jobs[1:] and
// leave every completed job — closure, request, and with decode-in-place
// the whole 1 MiB frame body — reachable from the backing array.
func TestDrainedLaneReleasesRequestBodies(t *testing.T) {
	const chunk, burst = 1 << 20, 48
	s, q1, q2, small1, small2 := twoQueueSession(t)
	defer s.Close()
	ctx := call(t, s, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{})
	buf := call(t, s, &protocol.CreateBufferReq{ContextID: ctx.ID, Size: chunk}, &protocol.ObjectResp{})

	before := heapAfterGC()
	// Park q1's lane on an event nothing has created yet, so the whole
	// burst queues up behind it in one backing array.
	const gate = 1000
	parked := goCall(s, &protocol.WriteBufferReq{
		QueueID: q1, BufferID: small1, Data: []byte{1}, EventID: gate + 1, WaitEvents: []int64{gate},
	})
	pending := make([]<-chan asyncResult, burst)
	for i := range pending {
		// A body of its own per request, as the transport hands them over.
		pending[i] = goCall(s, &protocol.WriteBufferReq{
			QueueID: q1, BufferID: buf.ID, Data: make([]byte, chunk), EventID: uint64(i + 1),
		})
	}
	mustEvent(t, goCall(s, &protocol.WriteBufferReq{QueueID: q2, BufferID: small2, Data: []byte{1}, EventID: gate}))
	mustEvent(t, parked)
	for i, ch := range pending {
		mustEvent(t, ch)
		call(t, s, &protocol.ReleaseReq{Kind: protocol.ObjEvent, ID: uint64(i + 1)}, &protocol.EmptyResp{})
	}
	call(t, s, &protocol.ReleaseReq{Kind: protocol.ObjBuffer, ID: buf.ID}, &protocol.EmptyResp{})
	after := heapAfterGC()
	if grown := int64(after) - int64(before); grown > burst*chunk/4 {
		t.Fatalf("node heap grew by %d MiB across a drained burst of %d MiB: completed commands still pin their request bodies",
			grown>>20, burst*chunk>>20)
	}
	runtime.KeepAlive(s)
}

// TestParkedDepositsSurvivePeerTraffic: several bulk deposits parked in
// the destination's rendezvous table, all shipped over one peer connection
// from one reused (pooled) source snapshot, each hold their own bytes when
// their AwaitPush finally consumes them.
func TestParkedDepositsSurvivePeerTraffic(t *testing.T) {
	const size, pushes = 256 << 10, 6
	net := transport.NewMemNetwork()
	nA := servePeerNode(t, net, "alpha")
	nB := servePeerNode(t, net, "beta")
	book := []protocol.PeerAddr{
		{Name: "alpha", Addr: "mem://alpha"},
		{Name: "beta", Addr: "mem://beta"},
	}
	sA, qA, _ := openPeerSession(t, nA, book)
	defer sA.Close()
	sB, qB, _ := openPeerSession(t, nB, book)
	defer sB.Close()
	ctxA := call(t, sA, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{})
	ctxB := call(t, sB, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{})
	bufA := call(t, sA, &protocol.CreateBufferReq{ContextID: ctxA.ID, Size: size}, &protocol.ObjectResp{}).ID
	bufB := call(t, sB, &protocol.CreateBufferReq{ContextID: ctxB.ID, Size: size}, &protocol.ObjectResp{}).ID

	fill := func(seed int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(seed*31 + i)
		}
		return b
	}
	// Every push is acknowledged — its deposit parked on beta — before the
	// next overwrites alpha's replica and re-snapshots it.
	ev := uint64(0)
	for p := 1; p <= pushes; p++ {
		ev++
		mustEvent(t, goCall(sA, &protocol.WriteBufferReq{QueueID: qA, BufferID: bufA, Data: fill(p), EventID: ev}))
		ev++
		mustEvent(t, goCall(sA, &protocol.PushRangeReq{
			QueueID: qA, BufferID: bufA, PeerName: "beta", PeerBufferID: bufB,
			Token: uint64(p), Offset: 0, Size: size, EventID: ev,
		}))
	}
	for p := 1; p <= pushes; p++ {
		mustEvent(t, goCall(sB, &protocol.AwaitPushReq{
			QueueID: qB, BufferID: bufB, Token: uint64(p), Offset: 0, Size: size, EventID: uint64(p),
		}))
		var rd protocol.ReadBufferResp
		call(t, sB, &protocol.ReadBufferReq{QueueID: qB, BufferID: bufB, Offset: 0, Size: size}, &rd)
		if !bytes.Equal(rd.Data, fill(p)) {
			t.Fatalf("deposit %d was overwritten while parked", p)
		}
	}
}

// wireConn speaks the raw wire to a node's server over one connection: it
// sends plain frames and envelopes exactly as built, and collects every
// response, unpacked from whatever envelope carried it.
type wireConn struct {
	t     *testing.T
	conn  net.Conn
	resps chan protocol.Frame
}

func dialWire(t *testing.T, n *Node) *wireConn {
	t.Helper()
	host, nodeEnd := net.Pipe()
	srv := n.Serve()
	if err := srv.ServeConn(nodeEnd); err != nil {
		t.Fatal(err)
	}
	w := &wireConn{t: t, conn: host, resps: make(chan protocol.Frame, 64)}
	go func() {
		defer close(w.resps)
		for {
			f, err := protocol.ReadFrame(host)
			if err != nil {
				return
			}
			subs := []*protocol.Frame{f}
			if f.Kind == protocol.FrameBatch {
				if subs, err = protocol.DecodeBatch(f); err != nil {
					return
				}
			}
			for _, sub := range subs {
				w.resps <- *sub
			}
		}
	}()
	t.Cleanup(func() {
		host.Close()
		srv.Close()
	})
	return w
}

// request is the frame carrying m as request id.
func request(id uint64, m protocol.Message) *protocol.Frame {
	return &protocol.Frame{Kind: protocol.FrameRequest, ReqID: id, Op: m.Op(), Body: protocol.EncodeMessage(m)}
}

// send writes one plain frame, or an envelope of several.
func (w *wireConn) send(subs ...*protocol.Frame) {
	w.t.Helper()
	f := subs[0]
	if len(subs) > 1 {
		var err error
		if f, err = protocol.EncodeBatch(subs); err != nil {
			w.t.Fatal(err)
		}
	}
	if err := protocol.WriteFrame(w.conn, f); err != nil {
		w.t.Fatal(err)
	}
}

// await collects the responses to ids, in whatever order they arrive,
// failing on a remote error or a response to anything else.
func (w *wireConn) await(ids ...uint64) map[uint64]protocol.Frame {
	w.t.Helper()
	got := make(map[uint64]protocol.Frame)
	timeout := time.After(5 * time.Second)
	for len(got) < len(ids) {
		select {
		case r, ok := <-w.resps:
			if !ok {
				w.t.Fatal("connection closed while awaiting responses")
			}
			if r.Op == protocol.OpError {
				var er protocol.ErrorResp
				_ = protocol.DecodeMessage(&er, r.Body)
				w.t.Fatalf("request %d failed: %s", r.ReqID, er.Message)
			}
			if !slices.Contains(ids, r.ReqID) {
				w.t.Fatalf("response to request %d while awaiting %v", r.ReqID, ids)
			}
			got[r.ReqID] = r
		case <-timeout:
			w.t.Fatalf("responses to %v hung; got %d", ids, len(got))
		}
	}
	return got
}

// wireCall sends m as request id on its own and decodes its response into
// resp.
func wireCall[T protocol.Message](w *wireConn, id uint64, m protocol.Message, resp T) T {
	w.t.Helper()
	w.send(request(id, m))
	if err := protocol.DecodeMessage(resp, w.await(id)[id].Body); err != nil {
		w.t.Fatal(err)
	}
	return resp
}

// TestEnvelopeBodyOutlivesParkedWrite: a request envelope's body is pooled
// and goes back to the pool only once every request it carries has been
// answered. Its first request is a write parked in its lane behind a wait
// edge while its envelope-mates are answered, and a second envelope of the
// same size class arrives before the edge resolves. The parked write must
// still land its exact bytes: freed early, its payload would read the
// second envelope's bytes from a reused buffer, or under the race detector
// the poison Free leaves behind.
func TestEnvelopeBodyOutlivesParkedWrite(t *testing.T) {
	const size = 3000
	n := testNode(t,
		device.Config{Driver: sim.DriverGPU, ID: 1, Shared: true},
		device.Config{Driver: sim.DriverGPU, ID: 2, Shared: true},
	)
	w := dialWire(t, n)
	ctx := wireCall(w, 1, &protocol.CreateContextReq{DeviceIDs: []int64{1, 2}}, &protocol.ObjectResp{}).ID
	q1 := wireCall(w, 2, &protocol.CreateQueueReq{ContextID: ctx, DeviceID: 1}, &protocol.ObjectResp{}).ID
	q2 := wireCall(w, 3, &protocol.CreateQueueReq{ContextID: ctx, DeviceID: 2}, &protocol.ObjectResp{}).ID
	target := wireCall(w, 4, &protocol.CreateBufferReq{ContextID: ctx, Size: size}, &protocol.ObjectResp{}).ID
	other := wireCall(w, 5, &protocol.CreateBufferReq{ContextID: ctx, Size: size}, &protocol.ObjectResp{}).ID
	pattern := func(seed byte) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = seed + byte(i*7)
		}
		return b
	}
	want := pattern(1)

	// Envelope 1: the write to target waits for event 10, which nothing
	// has created yet; its two mates on the other queue complete at once.
	w.send(
		request(10, &protocol.WriteBufferReq{QueueID: q1, BufferID: target, Data: want, EventID: 11, WaitEvents: []int64{10}}),
		request(11, &protocol.WriteBufferReq{QueueID: q2, BufferID: other, Data: []byte{1, 2}, EventID: 12}),
		request(12, &protocol.WriteBufferReq{QueueID: q2, BufferID: other, Data: []byte{3, 4}, EventID: 13}),
	)
	// The mates are answered (their responses held for the envelope) while
	// the write stays parked.
	deadline := time.Now().Add(5 * time.Second)
	for {
		a := wireCall(w, 20, &protocol.QueryEventReq{EventID: 12}, &protocol.QueryEventResp{})
		b := wireCall(w, 21, &protocol.QueryEventReq{EventID: 13}, &protocol.QueryEventResp{})
		if a.Complete && b.Complete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the parked write's envelope-mates never completed")
		}
		time.Sleep(time.Millisecond)
	}
	if q := wireCall(w, 22, &protocol.QueryEventReq{EventID: 11}, &protocol.QueryEventResp{}); q.Complete {
		t.Fatal("the write ran before its wait edge resolved")
	}

	// Envelope 2, of the same size class, creates event 10 behind a write
	// of other bytes: it is read, into whatever buffer the pool has, before
	// the parked write can run.
	w.send(
		request(30, &protocol.WriteBufferReq{QueueID: q2, BufferID: other, Data: pattern(99), EventID: 14}),
		request(31, &protocol.WriteBufferReq{QueueID: q2, BufferID: other, Data: []byte{5}, EventID: 10}),
	)
	w.await(10, 11, 12, 30, 31)

	got := wireCall(w, 40, &protocol.ReadBufferReq{QueueID: q1, BufferID: target, Size: size}, &protocol.ReadBufferResp{})
	if !bytes.Equal(got.Data, want) {
		t.Fatal("the parked write landed bytes other than its own: its envelope's body was freed before it ran")
	}
}

// TestWriteDoesNotRetainRequestBody: the node copies a write's payload
// out of the request body into the buffer; overwriting the body after the
// response (as the transport's pool will) must not reach the buffer.
func TestWriteDoesNotRetainRequestBody(t *testing.T) {
	const size = 64 << 10
	n := testNode(t)
	s := openSession(t, n, "alice")
	defer s.Close()
	ctx := call(t, s, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{})
	q := call(t, s, &protocol.CreateQueueReq{ContextID: ctx.ID, DeviceID: 1}, &protocol.ObjectResp{})
	buf := call(t, s, &protocol.CreateBufferReq{ContextID: ctx.ID, Size: size}, &protocol.ObjectResp{})

	data := bytes.Repeat([]byte{0xA5}, size)
	body := protocol.EncodeMessage(&protocol.WriteBufferReq{QueueID: q.ID, BufferID: buf.ID, Data: data})
	if _, err := s.HandleCall(protocol.OpWriteBuffer, body); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0
	}
	var rd protocol.ReadBufferResp
	call(t, s, &protocol.ReadBufferReq{QueueID: q.ID, BufferID: buf.ID, Size: size}, &rd)
	if !bytes.Equal(rd.Data, data) {
		t.Fatal("buffer contents changed when the request body was recycled")
	}
}

// A bulk PeerPush body is pooled: the transport hands it to the deposit's
// rendezvous entry once the ack is written (depositAck.KeepBody), and the
// entry frees it when both that hand-over and the awaiter, done copying,
// have let go. The tests below drive each order through the real transport
// server and assert the replica's bytes and that the body is freed exactly
// once: released reaches 2, and only the party that makes it 2 frees.

// depositSize is above protocol.BatchableBodyLimit, so a deposit's body is
// read into the payload pool.
const depositSize = 32 << 10

// migrationPair serves two one-GPU peer nodes on an in-process network and
// opens a session with one queue and one depositSize buffer on each.
func migrationPair(t *testing.T) (nB *Node, sA *Session, qA, bufA uint64, sB *Session, qB, bufB uint64) {
	t.Helper()
	net := transport.NewMemNetwork()
	nA := servePeerNode(t, net, "alpha")
	nB = servePeerNode(t, net, "beta")
	book := []protocol.PeerAddr{
		{Name: "alpha", Addr: "mem://alpha"},
		{Name: "beta", Addr: "mem://beta"},
	}
	sA, qA, bufA = openSizedPeerSession(t, nA, book, depositSize)
	sB, qB, bufB = openSizedPeerSession(t, nB, book, depositSize)
	t.Cleanup(func() {
		sA.Close()
		sB.Close()
	})
	return nB, sA, qA, bufA, sB, qB, bufB
}

// depositPattern is the payload a test pushes under token.
func depositPattern(token uint64) []byte {
	b := make([]byte, depositSize)
	for i := range b {
		b[i] = byte(token*13 + uint64(i)*7)
	}
	return b
}

// pushFromAlpha writes token's pattern into alpha's buffer and pushes it to
// beta's, returning once beta has acknowledged the deposit.
func pushFromAlpha(t *testing.T, sA *Session, qA, bufA, bufB, token uint64) {
	t.Helper()
	mustEvent(t, goCall(sA, &protocol.WriteBufferReq{
		QueueID: qA, BufferID: bufA, Data: depositPattern(token), EventID: 2*token - 1,
	}))
	mustEvent(t, goCall(sA, &protocol.PushRangeReq{
		QueueID: qA, BufferID: bufA, PeerName: "beta", PeerBufferID: bufB,
		Token: token, Offset: 0, Size: depositSize, EventID: 2 * token,
	}))
}

// waitReleased waits until want parties have released e.
func waitReleased(t *testing.T, e *rdvEntry, want int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.released.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("deposit released by %d parties, want %d", e.released.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertFreedOnce checks e's pooled body was handed over and freed by the
// second of exactly two releases.
func assertFreedOnce(t *testing.T, e *rdvEntry) {
	t.Helper()
	waitReleased(t, e, 2)
	if e.body == nil {
		t.Fatal("the deposit's body was never handed over: it was not pooled")
	}
}

// replica reads beta's whole buffer.
func replica(t *testing.T, sB *Session, qB, bufB uint64) []byte {
	t.Helper()
	var rd protocol.ReadBufferResp
	call(t, sB, &protocol.ReadBufferReq{QueueID: qB, BufferID: bufB, Offset: 0, Size: depositSize}, &rd)
	return rd.Data
}

// TestDepositHandedOverBeforeAwait: the deposit is acknowledged and its
// body handed to the entry before the AwaitPush runs; the awaiter copies
// it and frees it. Another awaiter holding the entry — two hosts can mint
// the same token — may not take it after that.
func TestDepositHandedOverBeforeAwait(t *testing.T) {
	nB, sA, qA, bufA, sB, qB, bufB := migrationPair(t)
	pushFromAlpha(t, sA, qA, bufA, bufB, 1)
	e := parkedEntry(t, nB, 1)
	waitReleased(t, e, 1)

	mustEvent(t, goCall(sB, &protocol.AwaitPushReq{
		QueueID: qB, BufferID: bufB, Token: 1, Offset: 0, Size: depositSize, EventID: 1,
	}))
	assertFreedOnce(t, e)
	if nB.rdv.take(1, e) {
		t.Fatal("a second awaiter took a deposit whose body is freed")
	}
	if !bytes.Equal(replica(t, sB, qB, bufB), depositPattern(1)) {
		t.Fatal("the awaited replica does not hold the deposited bytes")
	}
}

// TestAwaiterCopiesBeforeHandOver: the AwaitPush is parked when the deposit
// lands, and copies it while the ack is still unwritten — the source here
// is a raw connection that has not read it — so the hand-over comes second
// and frees the body.
func TestAwaiterCopiesBeforeHandOver(t *testing.T) {
	nB, _, _, _, sB, qB, bufB := migrationPair(t)
	awaitCh := goCall(sB, &protocol.AwaitPushReq{
		QueueID: qB, BufferID: bufB, Token: 2, Offset: 0, Size: depositSize, EventID: 1,
	})
	e := parkedEntry(t, nB, 2)

	host, nodeEnd := net.Pipe()
	srv := nB.Serve()
	if err := srv.ServeConn(nodeEnd); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer host.Close()
	if err := protocol.WriteFrame(host, request(1, &protocol.PeerPushReq{Token: 2, Data: depositPattern(2)})); err != nil {
		t.Fatal(err)
	}
	mustEvent(t, awaitCh)
	if got := e.released.Load(); got != 1 {
		t.Fatalf("deposit released by %d parties before its ack was read, want the awaiter alone", got)
	}
	if !bytes.Equal(replica(t, sB, qB, bufB), depositPattern(2)) {
		t.Fatal("the awaited replica does not hold the deposited bytes")
	}

	ack, err := protocol.ReadFrame(host)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Op != protocol.OpPeerPush || ack.ReqID != 1 || len(ack.Body) != 0 {
		t.Fatalf("deposit answered with op %s, %d body bytes; want an empty ack", ack.Op, len(ack.Body))
	}
	assertFreedOnce(t, e)
}

// TestMismatchedAwaitFreesDeposit: an AwaitPush whose size differs from the
// deposit's refuses it, lands nothing, and still lets go of the body.
func TestMismatchedAwaitFreesDeposit(t *testing.T) {
	nB, sA, qA, bufA, sB, qB, bufB := migrationPair(t)
	pushFromAlpha(t, sA, qA, bufA, bufB, 3)
	e := parkedEntry(t, nB, 3)

	err := mustFail(t, goCall(sB, &protocol.AwaitPushReq{
		QueueID: qB, BufferID: bufB, Token: 3, Offset: 0, Size: depositSize / 2, EventID: 1,
	}))
	wantCode(t, err, protocol.CodeBadRequest)
	assertFreedOnce(t, e)
	if !bytes.Equal(replica(t, sB, qB, bufB), make([]byte, depositSize)) {
		t.Fatal("a refused deposit landed bytes in the replica")
	}
}

// TestResetReplacesHeldDeposit: a membership change replaces a deposited
// entry whose awaiter already holds it. The holder still consumes its
// bytes and frees the body once; the token's tombstone fails every later
// awaiter. An awaiter is between finding its entry and taking it only for
// an instant, so the test holds the entry the way exec does.
func TestResetReplacesHeldDeposit(t *testing.T) {
	nB, sA, qA, bufA, sB, qB, bufB := migrationPair(t)
	hello := func(epoch uint64) {
		call(t, sB, &protocol.HelloReq{UserID: "peer-test", WireVersion: protocol.Version, Epoch: epoch}, &protocol.HelloResp{})
	}
	hello(1)
	pushFromAlpha(t, sA, qA, bufA, bufB, 4)
	e := parkedEntry(t, nB, 4)
	waitReleased(t, e, 1)
	if held := nB.rdv.entry(4); held != e {
		t.Fatal("the awaiter found another entry than the deposit's")
	}

	hello(2)
	if nB.rdv.entry(4) == e {
		t.Fatal("the membership change left the deposited entry in place")
	}
	err := mustFail(t, goCall(sB, &protocol.AwaitPushReq{
		QueueID: qB, BufferID: bufB, Token: 4, Offset: 0, Size: depositSize, EventID: 1,
	}))
	wantCode(t, err, protocol.CodeNodeLost)
	if !bytes.Equal(replica(t, sB, qB, bufB), make([]byte, depositSize)) {
		t.Fatal("the tombstone's awaiter landed bytes in the replica")
	}

	if !nB.rdv.take(4, e) {
		t.Fatal("the holder could not take the replaced entry")
	}
	if e.err != nil || !bytes.Equal(e.data, depositPattern(4)) {
		t.Fatalf("the replaced entry lost its deposit (err %v)", e.err)
	}
	e.release()
	assertFreedOnce(t, e)
}

// TestRecycledCommandsKeepTheirReplies: a write, copy or launch command
// goes back to its pool the moment its lane has run done, while its
// envelope may still hold its reply, so the reply must not live in the
// command; a read's does, and reads are not pooled. One envelope carries
// writes and launches on two queues and a read; the second queue's lane
// parks on a wait edge, so the first queue's replies stay held while later
// commands reuse the recycled records. Every held reply must carry its own
// event ID and profile, and the read its bytes.
func TestRecycledCommandsKeepTheirReplies(t *testing.T) {
	const elems = 64
	n := testNode(t,
		device.Config{Driver: sim.DriverGPU, ID: 1, Shared: true},
		device.Config{Driver: sim.DriverGPU, ID: 2, Shared: true},
	)
	w := dialWire(t, n)
	ctx := wireCall(w, 1, &protocol.CreateContextReq{DeviceIDs: []int64{1, 2}}, &protocol.ObjectResp{}).ID
	q1 := wireCall(w, 2, &protocol.CreateQueueReq{ContextID: ctx, DeviceID: 1}, &protocol.ObjectResp{}).ID
	q2 := wireCall(w, 3, &protocol.CreateQueueReq{ContextID: ctx, DeviceID: 2}, &protocol.ObjectResp{}).ID
	prog := wireCall(w, 4, &protocol.BuildProgramReq{ContextID: ctx, Source: doubleSource}, &protocol.BuildProgramResp{}).ProgramID
	k := wireCall(w, 5, &protocol.CreateKernelReq{ProgramID: prog, Name: "double_it"}, &protocol.ObjectResp{}).ID
	a := wireCall(w, 6, &protocol.CreateBufferReq{ContextID: ctx, Size: 4 * elems}, &protocol.ObjectResp{}).ID
	b := wireCall(w, 7, &protocol.CreateBufferReq{ContextID: ctx, Size: 4 * elems}, &protocol.ObjectResp{}).ID
	values := func(base float32) []byte {
		f := make([]float32, elems)
		for i := range f {
			f[i] = base + float32(i)
		}
		return mem.F32Bytes(f)
	}
	write := func(q, buf uint64, data []byte, event uint64, waits ...int64) *protocol.WriteBufferReq {
		return &protocol.WriteBufferReq{QueueID: q, BufferID: buf, Data: data, EventID: event,
			SimArrival: int64(event) * 1000, WaitEvents: waits}
	}
	launch := func(q, buf, event uint64) *protocol.EnqueueKernelReq {
		return &protocol.EnqueueKernelReq{QueueID: q, KernelID: k, Global: []int64{elems}, EventID: event,
			SimArrival: int64(event) * 1000, Args: []protocol.KernelArg{
				{Kind: protocol.ArgBuffer, BufferID: buf},
				{Kind: protocol.ArgScalar, Scalar: kernel.EncodeScalar(int32(elems))},
			}}
	}

	// Queue 2 waits for event 99, which nothing has created yet.
	held := map[uint64]uint64{10: 21, 11: 22, 12: 23, 13: 24} // request → event
	w.send(
		request(10, write(q1, a, values(1), 21)),
		request(11, write(q2, b, values(5), 22, 99)),
		request(12, launch(q1, a, 23)),
		request(13, launch(q2, b, 24)),
		request(14, &protocol.ReadBufferReq{QueueID: q1, BufferID: a, Size: 4 * elems, EventID: 25}),
	)
	query := func(id, event uint64) *protocol.QueryEventResp {
		return wireCall(w, id, &protocol.QueryEventReq{EventID: event}, &protocol.QueryEventResp{})
	}
	for deadline := time.Now().Add(5 * time.Second); !query(30, 25).Complete; {
		if time.Now().After(deadline) {
			t.Fatal("the first queue's commands never completed")
		}
		time.Sleep(time.Millisecond)
	}
	if query(31, 22).Complete {
		t.Fatal("the parked write ran before its wait edge resolved")
	}

	// The first queue's records are back in their pools; these commands
	// take them over while the envelope still holds their replies.
	id, event := uint64(100), uint64(200)
	for i := 0; i < 20; i++ {
		w.send(request(id, write(q1, a, values(float32(100+i)), event)))
		w.send(request(id+1, launch(q1, a, event+1)))
		w.send(request(id+2, &protocol.ReadBufferReq{QueueID: q1, BufferID: a, Size: 4 * elems, EventID: event + 2}))
		w.await(id, id+1, id+2)
		id, event = id+3, event+3
	}
	w.send(request(id, write(q1, b, values(9), 99)))
	got := w.await(10, 11, 12, 13, 14, id)

	for req, ev := range held {
		var resp protocol.EventResp
		if err := protocol.DecodeMessage(&resp, got[req].Body); err != nil {
			t.Fatal(err)
		}
		want := query(40, ev)
		if resp.EventID != ev || resp.Profile != want.Profile || resp.Profile.Queued != int64(ev)*1000 {
			t.Fatalf("request %d answered for event %d with profile %+v; want event %d, profile %+v",
				req, resp.EventID, resp.Profile, ev, want.Profile)
		}
	}
	var rd protocol.ReadBufferResp
	if err := protocol.DecodeMessage(&rd, got[14].Body); err != nil {
		t.Fatal(err)
	}
	doubled := mem.BytesF32(values(1))
	for i := range doubled {
		doubled[i] *= 2
	}
	if rd.EventID != 25 || !bytes.Equal(rd.Data, mem.F32Bytes(doubled)) {
		t.Fatalf("the held read answered for event %d with other bytes than its buffer held", rd.EventID)
	}
}
