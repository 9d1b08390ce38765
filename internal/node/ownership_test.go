package node

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/haocl-project/haocl/internal/protocol"
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
