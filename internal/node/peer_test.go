package node

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/transport"
)

// These tests pin down the peer-to-peer data plane's session lifecycle
// (DESIGN.md §6): lazy peer dialing with sticky failures, the PushRange/
// AwaitPush rendezvous, cancel-driven failure cascades, and peer-pool
// teardown on Close. Like the lane tests they go through the async
// interface and are meant to run under -race.

// servePeerNode builds a one-GPU node named name, registers its server on
// the in-process network under "mem://"+name, and wires the same network
// in as the node's peer dialer.
func servePeerNode(t *testing.T, net *transport.MemNetwork, name string) *Node {
	t.Helper()
	icd := device.NewICD()
	sim.RegisterDrivers(icd, kernel.NewRegistry())
	n, err := New(Options{
		Name:        name,
		Devices:     []device.Config{{Driver: sim.DriverGPU, ID: 1, Shared: true}},
		ICD:         icd,
		ExecWorkers: 1,
		Dialer:      net,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := n.Serve()
	addr := "mem://" + name
	if err := net.Register(addr, srv); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		net.Unregister(addr)
		srv.Close()
	})
	return n
}

// openPeerSession opens a host session on n whose Hello carries the given
// address book, then builds one queue and one 64-byte buffer.
func openPeerSession(t *testing.T, n *Node, peers []protocol.PeerAddr) (s *Session, queueID, bufID uint64) {
	t.Helper()
	return openSizedPeerSession(t, n, peers, 64)
}

// openSizedPeerSession is openPeerSession with a buffer of size bytes.
func openSizedPeerSession(t *testing.T, n *Node, peers []protocol.PeerAddr, size int64) (s *Session, queueID, bufID uint64) {
	t.Helper()
	s = n.NewSession().(*Session)
	call(t, s, &protocol.HelloReq{
		UserID: "peer-test", WireVersion: protocol.Version, Peers: peers,
	}, &protocol.HelloResp{})
	ctx := call(t, s, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{})
	q := call(t, s, &protocol.CreateQueueReq{ContextID: ctx.ID, DeviceID: 1}, &protocol.ObjectResp{})
	b := call(t, s, &protocol.CreateBufferReq{ContextID: ctx.ID, Size: size}, &protocol.ObjectResp{})
	return s, q.ID, b.ID
}

// mustFail waits for an async completion and returns its error, failing
// the test if the call hung or succeeded.
func mustFail(t *testing.T, ch <-chan asyncResult) error {
	t.Helper()
	select {
	case r := <-ch:
		if r.err == nil {
			t.Fatalf("call succeeded (%+v), want failure", r.msg)
		}
		return r.err
	case <-time.After(5 * time.Second):
		t.Fatal("failing call hung instead of erroring")
		return nil
	}
}

// wantCode asserts err is a RemoteError with the given code.
func wantCode(t *testing.T, err error, code uint32) {
	t.Helper()
	var re *protocol.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not remote", err)
	}
	if re.Code != code {
		t.Fatalf("code = %d, want %d (%v)", re.Code, code, re)
	}
}

// TestPeerPushDeliversRange is the happy path: a PushRange on the source
// node dials the peer lazily, deposits the payload, and the destination's
// AwaitPush lands it in the target replica no earlier than the payload's
// virtual arrival.
func TestPeerPushDeliversRange(t *testing.T) {
	net := transport.NewMemNetwork()
	nA := servePeerNode(t, net, "alpha")
	nB := servePeerNode(t, net, "beta")
	book := []protocol.PeerAddr{
		{Name: "alpha", Addr: "mem://alpha"},
		{Name: "beta", Addr: "mem://beta"},
	}
	sA, qA, bufA := openPeerSession(t, nA, book)
	defer sA.Close()
	sB, qB, bufB := openPeerSession(t, nB, book)
	defer sB.Close()

	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i*5 + 3)
	}
	write := mustEvent(t, goCall(sA, &protocol.WriteBufferReq{
		QueueID: qA, BufferID: bufA, Data: data, EventID: 1,
	}))

	// The awaiter parks first — the rendezvous must pair it with the
	// deposit regardless of arrival order.
	awaitCh := goCall(sB, &protocol.AwaitPushReq{
		QueueID: qB, BufferID: bufB, Token: 42, Offset: 0, Size: 64,
		SimArrival: 1_000, EventID: 1,
	})
	push := mustEvent(t, goCall(sA, &protocol.PushRangeReq{
		QueueID: qA, BufferID: bufA, PeerName: "beta", PeerBufferID: bufB,
		Token: 42, Offset: 0, Size: 64, SimArrival: 1_000, EventID: 2,
		WaitEvents: []int64{1},
	}))
	if push.Profile.Start < write.Profile.End {
		t.Fatalf("push departed at %d, before its dependency completed at %d",
			push.Profile.Start, write.Profile.End)
	}
	await := mustEvent(t, awaitCh)
	if await.Profile.Start < push.Profile.End {
		t.Fatalf("await started at %d, before the payload arrived at %d",
			await.Profile.Start, push.Profile.End)
	}

	var rd protocol.ReadBufferResp
	call(t, sB, &protocol.ReadBufferReq{
		QueueID: qB, BufferID: bufB, Offset: 0, Size: 64,
	}, &rd)
	if string(rd.Data) != string(data) {
		t.Fatalf("peer replica contents diverged after push:\n got %v\nwant %v", rd.Data, data)
	}
}

// TestPeerDialFailureIsStickyAndFailsChain exercises the lazy-dial failure
// path: the first push toward an unreachable peer fails in the lane (not
// at registration), a dependent command chained on its event fails rather
// than hangs, and the failure is sticky — the peer coming up later does
// not resurrect this session's pool entry.
func TestPeerDialFailureIsStickyAndFailsChain(t *testing.T) {
	net := transport.NewMemNetwork()
	nA := servePeerNode(t, net, "alpha")
	sA, qA, bufA := openPeerSession(t, nA, []protocol.PeerAddr{
		{Name: "ghost", Addr: "mem://ghost"}, // nothing registered there
	})
	defer sA.Close()

	pushErr := mustFail(t, goCall(sA, &protocol.PushRangeReq{
		QueueID: qA, BufferID: bufA, PeerName: "ghost", PeerBufferID: 1,
		Token: 1, Offset: 0, Size: 64, EventID: 2,
	}))
	wantCode(t, pushErr, protocol.CodeNodeLost)
	if !strings.Contains(pushErr.Error(), "ghost") {
		t.Fatalf("dial error does not name the peer: %v", pushErr)
	}

	// A command waiting on the failed push's event must cascade-fail.
	depErr := mustFail(t, goCall(sA, &protocol.WriteBufferReq{
		QueueID: qA, BufferID: bufA, Data: make([]byte, 64),
		EventID: 3, WaitEvents: []int64{2},
	}))
	if !strings.Contains(depErr.Error(), "ghost") {
		t.Fatalf("dependent failure lost the root cause: %v", depErr)
	}

	// The ghost comes alive — but the pool entry is sticky, so this
	// session keeps failing fast instead of re-dialing mid-stream.
	servePeerNode(t, net, "ghost")
	stickyErr := mustFail(t, goCall(sA, &protocol.PushRangeReq{
		QueueID: qA, BufferID: bufA, PeerName: "ghost", PeerBufferID: 1,
		Token: 2, Offset: 0, Size: 64, EventID: 4,
	}))
	wantCode(t, stickyErr, protocol.CodeNodeLost)
}

// TestPeerPushWithoutAddressBook: a host that never sent a peer list gets
// a clean unknown-object error, not a dial attempt.
func TestPeerPushWithoutAddressBook(t *testing.T) {
	net := transport.NewMemNetwork()
	nA := servePeerNode(t, net, "alpha")
	sA, qA, bufA := openPeerSession(t, nA, nil)
	defer sA.Close()

	err := mustFail(t, goCall(sA, &protocol.PushRangeReq{
		QueueID: qA, BufferID: bufA, PeerName: "beta", PeerBufferID: 1,
		Token: 1, Offset: 0, Size: 64, EventID: 2,
	}))
	wantCode(t, err, protocol.CodeUnknownObject)
}

// TestPeerPushOutsideAddressBookIsNodeLost: a peer the host's address book
// leaves out has left the membership, so a push planned toward it before
// the host said so fails as node loss, which the host retries.
func TestPeerPushOutsideAddressBookIsNodeLost(t *testing.T) {
	net := transport.NewMemNetwork()
	nA := servePeerNode(t, net, "alpha")
	sA, qA, bufA := openPeerSession(t, nA, []protocol.PeerAddr{{Name: "alpha", Addr: "mem://alpha"}})
	defer sA.Close()

	err := mustFail(t, goCall(sA, &protocol.PushRangeReq{
		QueueID: qA, BufferID: bufA, PeerName: "beta", PeerBufferID: 1,
		Token: 1, Offset: 0, Size: 64, EventID: 2,
	}))
	wantCode(t, err, protocol.CodeNodeLost)
}

// TestRefusedPushKeepsPeerConnection: a peer that refuses a deposit — its
// rendezvous for the token was failed first, as a membership change does
// — answered, so the connection to it is sound and the next push over it
// goes through instead of failing with the refusal.
func TestRefusedPushKeepsPeerConnection(t *testing.T) {
	net := transport.NewMemNetwork()
	nA := servePeerNode(t, net, "alpha")
	nB := servePeerNode(t, net, "beta")
	book := []protocol.PeerAddr{
		{Name: "alpha", Addr: "mem://alpha"},
		{Name: "beta", Addr: "mem://beta"},
	}
	sA, qA, bufA := openPeerSession(t, nA, book)
	defer sA.Close()
	sB, qB, bufB := openPeerSession(t, nB, book)
	defer sB.Close()

	call(t, sB, &protocol.CancelPushReq{Token: 5, Reason: "membership changed"}, &protocol.EmptyResp{})
	refused := mustFail(t, goCall(sA, &protocol.PushRangeReq{
		QueueID: qA, BufferID: bufA, PeerName: "beta", PeerBufferID: bufB,
		Token: 5, Offset: 0, Size: 64, EventID: 1,
	}))
	if !strings.Contains(refused.Error(), "duplicate push") {
		t.Fatalf("push into a failed rendezvous: %v, want the peer's refusal", refused)
	}

	awaitCh := goCall(sB, &protocol.AwaitPushReq{
		QueueID: qB, BufferID: bufB, Token: 6, Offset: 0, Size: 64, EventID: 1,
	})
	mustEvent(t, goCall(sA, &protocol.PushRangeReq{
		QueueID: qA, BufferID: bufA, PeerName: "beta", PeerBufferID: bufB,
		Token: 6, Offset: 0, Size: 64, EventID: 2,
	}))
	mustEvent(t, awaitCh)
}

// TestCancelPushFailsParkedAwaiter: the host's failure cascade sends
// CancelPush when a source-side push dies; the parked AwaitPush must error
// out with the carried reason instead of waiting forever, and commands
// chained on it must fail too.
func TestCancelPushFailsParkedAwaiter(t *testing.T) {
	net := transport.NewMemNetwork()
	nB := servePeerNode(t, net, "beta")
	sB, qB, bufB := openPeerSession(t, nB, nil)
	defer sB.Close()

	awaitCh := goCall(sB, &protocol.AwaitPushReq{
		QueueID: qB, BufferID: bufB, Token: 7, Offset: 0, Size: 64, EventID: 1,
	})
	depCh := goCall(sB, &protocol.WriteBufferReq{
		QueueID: qB, BufferID: bufB, Data: make([]byte, 64),
		EventID: 2, WaitEvents: []int64{1},
	})
	// Let both commands reach their lane before the cancel lands.
	q := call(t, sB, &protocol.QueryEventReq{EventID: 1}, &protocol.QueryEventResp{})
	if q.Complete {
		t.Fatal("parked awaiter reported complete")
	}

	call(t, sB, &protocol.CancelPushReq{Token: 7, Reason: "source push failed"}, &protocol.EmptyResp{})

	awaitErr := mustFail(t, awaitCh)
	if !strings.Contains(awaitErr.Error(), "source push failed") {
		t.Fatalf("awaiter error lost the cancel reason: %v", awaitErr)
	}
	if err := mustFail(t, depCh); !strings.Contains(err.Error(), "source push failed") {
		t.Fatalf("dependent of cancelled await lost the root cause: %v", err)
	}
}

// TestConnectionReadsPastParkedAwait: the server reads a connection's
// frames and registers each on the same goroutine, so nothing registration
// does may wait for a lane. An AwaitPush parked on queue A must leave the
// connection readable: a write and a read on queue B behind it complete,
// and so does the CancelPush that fails the parked await with its reason.
func TestConnectionReadsPastParkedAwait(t *testing.T) {
	net := transport.NewMemNetwork()
	n := servePeerNode(t, net, "alpha")
	c, err := net.Dial("mem://alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := transport.Handshake(c, protocol.HelloReq{UserID: "reader"}); err != nil {
		t.Fatal(err)
	}
	create := func(req protocol.Message) uint64 {
		var resp protocol.ObjectResp
		if err := c.Call(req, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.ID
	}
	ctx := create(&protocol.CreateContextReq{DeviceIDs: []int64{1}})
	qA := create(&protocol.CreateQueueReq{ContextID: ctx, DeviceID: 1})
	qB := create(&protocol.CreateQueueReq{ContextID: ctx, DeviceID: 1})
	buf := create(&protocol.CreateBufferReq{ContextID: ctx, Size: 64})

	await := c.Go(&protocol.AwaitPushReq{QueueID: qA, BufferID: buf, Token: 9, Size: 64, EventID: 1}, nil)
	// Parked before anything else is sent, so it travels alone and this
	// test sees the reader, not the reply path;
	// TestEnvelopeMateAnsweredPastParkedAwait covers an envelope-mate.
	parkedEntry(t, n, 9)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i + 1)
	}
	if err := c.Call(&protocol.WriteBufferReq{QueueID: qB, BufferID: buf, Data: data, EventID: 2}, nil); err != nil {
		t.Fatal(err)
	}
	var read protocol.ReadBufferResp
	if err := c.Call(&protocol.ReadBufferReq{QueueID: qB, BufferID: buf, Size: 64, EventID: 3}, &read); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read.Data, data) {
		t.Fatal("queue B read back other bytes than it wrote")
	}
	if await.Answered() {
		t.Fatal("the await completed with no push and no cancel")
	}
	if err := c.Call(&protocol.CancelPushReq{Token: 9, Reason: "source push failed"}, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- await.Wait() }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "source push failed") {
			t.Fatalf("the cancelled await returned %v, want its reason", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled await hung")
	}
}

// TestEnvelopeMateAnsweredPastParkedAwait: a reply never waits for its
// envelope-mates. One envelope carries an AwaitPush on queue A, with no
// deposit coming, and a write on queue B: the write is answered while the
// await stays parked, and the CancelPush sent after that fails the await
// with its reason. A host that waits on the write before cancelling the
// push would otherwise stall.
func TestEnvelopeMateAnsweredPastParkedAwait(t *testing.T) {
	n := testNode(t, device.Config{Driver: sim.DriverGPU, ID: 1, Shared: true})
	w := dialWire(t, n)
	ctx := wireCall(w, 1, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{}).ID
	qA := wireCall(w, 2, &protocol.CreateQueueReq{ContextID: ctx, DeviceID: 1}, &protocol.ObjectResp{}).ID
	qB := wireCall(w, 3, &protocol.CreateQueueReq{ContextID: ctx, DeviceID: 1}, &protocol.ObjectResp{}).ID
	buf := wireCall(w, 4, &protocol.CreateBufferReq{ContextID: ctx, Size: 64}, &protocol.ObjectResp{}).ID

	w.send(
		request(10, &protocol.AwaitPushReq{QueueID: qA, BufferID: buf, Token: 9, Size: 64, EventID: 1}),
		request(11, &protocol.WriteBufferReq{QueueID: qB, BufferID: buf, Data: make([]byte, 64), EventID: 2}),
	)
	if r := w.reply(11, 3*time.Second); r.Op != protocol.OpWriteBuffer {
		t.Fatalf("the write was answered with %s", r.Op)
	}
	wireCall(w, 12, &protocol.CancelPushReq{Token: 9, Reason: "source push failed"}, &protocol.EmptyResp{})
	r := w.reply(10, 5*time.Second)
	var er protocol.ErrorResp
	if r.Op != protocol.OpError || protocol.DecodeMessage(&er, r.Body) != nil || !strings.Contains(er.Message, "source push failed") {
		t.Fatalf("the cancelled await was answered with %s %q, want its reason", r.Op, er.Message)
	}
}

// TestEventWaitErrorSaysOpAndCodeOnce: a command whose wait-list event
// failed reaches the host as one RemoteError naming its own op and the
// code once, around the failed event's message. Here the event is an
// AwaitPush refusing a deposit of the wrong size, and a read waits on it.
func TestEventWaitErrorSaysOpAndCodeOnce(t *testing.T) {
	net := transport.NewMemNetwork()
	servePeerNode(t, net, "alpha")
	c, err := net.Dial("mem://alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := transport.Handshake(c, protocol.HelloReq{UserID: "waiter"}); err != nil {
		t.Fatal(err)
	}
	create := func(req protocol.Message) uint64 {
		var resp protocol.ObjectResp
		if err := c.Call(req, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.ID
	}
	ctx := create(&protocol.CreateContextReq{DeviceIDs: []int64{1}})
	q := create(&protocol.CreateQueueReq{ContextID: ctx, DeviceID: 1})
	buf := create(&protocol.CreateBufferReq{ContextID: ctx, Size: 64})

	if err := c.Call(&protocol.PeerPushReq{Token: 5, Data: make([]byte, 64)}, nil); err != nil {
		t.Fatal(err)
	}
	await := c.Go(&protocol.AwaitPushReq{QueueID: q, BufferID: buf, Token: 5, Size: 32, EventID: 1}, nil)
	err = c.Call(&protocol.ReadBufferReq{QueueID: q, BufferID: buf, Size: 64, EventID: 2, WaitEvents: []int64{1}},
		&protocol.ReadBufferResp{})
	if want := "remote ReadBuffer: wait event 1: push 5 carried 64 bytes, await expects 32 (code 7)"; err == nil || err.Error() != want {
		t.Fatalf("the read waiting on a failed event reports %v, want %q", err, want)
	}
	if err := await.Wait(); err == nil {
		t.Fatal("the await of a deposit of the wrong size succeeded")
	}
}

// TestSessionCloseTearsDownPeerPool: Close must unpark any awaiter still
// waiting on a rendezvous and tear down the lazily-dialed peer pool after
// the lanes drain — no hangs, no leaked connections, no races.
func TestSessionCloseTearsDownPeerPool(t *testing.T) {
	net := transport.NewMemNetwork()
	nA := servePeerNode(t, net, "alpha")
	nB := servePeerNode(t, net, "beta")
	book := []protocol.PeerAddr{
		{Name: "alpha", Addr: "mem://alpha"},
		{Name: "beta", Addr: "mem://beta"},
	}
	sA, qA, bufA := openPeerSession(t, nA, book)
	sB, qB, bufB := openPeerSession(t, nB, book)

	// Open a live pooled connection with one successful push/await pair.
	mustEvent(t, goCall(sA, &protocol.WriteBufferReq{
		QueueID: qA, BufferID: bufA, Data: make([]byte, 64), EventID: 1,
	}))
	awaitCh := goCall(sB, &protocol.AwaitPushReq{
		QueueID: qB, BufferID: bufB, Token: 11, Offset: 0, Size: 64, EventID: 1,
	})
	mustEvent(t, goCall(sA, &protocol.PushRangeReq{
		QueueID: qA, BufferID: bufA, PeerName: "beta", PeerBufferID: bufB,
		Token: 11, Offset: 0, Size: 64, EventID: 2, WaitEvents: []int64{1},
	}))
	mustEvent(t, awaitCh)

	// Park a second awaiter with no deposit coming, then close under it.
	parked := goCall(sB, &protocol.AwaitPushReq{
		QueueID: qB, BufferID: bufB, Token: 12, Offset: 0, Size: 64, EventID: 2,
	})
	done := make(chan error, 1)
	go func() { done <- sB.Close() }()
	if err := mustFail(t, parked); !strings.Contains(err.Error(), "session closed") {
		t.Fatalf("parked awaiter did not fail on close: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session close hung draining the awaiter")
	}
	if err := sA.Close(); err != nil {
		t.Fatalf("source close: %v", err)
	}
	// The pool is gone: a fresh peerClient on the closed source session
	// would have to re-dial, proving closePeers dropped the cached entry.
	sA.peerMu.Lock()
	if sA.peerConns != nil {
		sA.peerMu.Unlock()
		t.Fatal("peer pool survived session close")
	}
	sA.peerMu.Unlock()
}

// gatedDialer parks every Dial until the gate opens and records the
// clients it hands out, so tests can interleave pool teardown with an
// in-flight dial deterministically.
type gatedDialer struct {
	inner   transport.Dialer
	dialing chan struct{} // one send per Dial that has started
	gate    chan struct{} // closed to let parked Dials proceed
	mu      sync.Mutex
	clients []*transport.Client
}

func newGatedDialer(inner transport.Dialer) *gatedDialer {
	return &gatedDialer{inner: inner, dialing: make(chan struct{}, 8), gate: make(chan struct{})}
}

func (d *gatedDialer) Dial(addr string) (*transport.Client, error) {
	d.dialing <- struct{}{}
	<-d.gate
	c, err := d.inner.Dial(addr)
	if c != nil {
		d.mu.Lock()
		d.clients = append(d.clients, c)
		d.mu.Unlock()
	}
	return c, err
}

// dialed returns the single connection the dialer handed out.
func (d *gatedDialer) dialed(t *testing.T) *transport.Client {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.clients) != 1 {
		t.Fatalf("dialer handed out %d connections, want 1", len(d.clients))
	}
	return d.clients[0]
}

// servePeerNodeWithDialer is servePeerNode with the peer dialer swapped
// out, for tests that need to control dial timing.
func servePeerNodeWithDialer(t *testing.T, net *transport.MemNetwork, name string, d transport.Dialer) *Node {
	t.Helper()
	icd := device.NewICD()
	sim.RegisterDrivers(icd, kernel.NewRegistry())
	n, err := New(Options{
		Name:        name,
		Devices:     []device.Config{{Driver: sim.DriverGPU, ID: 1, Shared: true}},
		ICD:         icd,
		ExecWorkers: 1,
		Dialer:      d,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := n.Serve()
	addr := "mem://" + name
	if err := net.Register(addr, srv); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		net.Unregister(addr)
		srv.Close()
	})
	return n
}

// assertClientClosed proves the connection is dead: a call on a closed
// client fails fast, while a leaked-open one would reach the live peer.
func assertClientClosed(t *testing.T, c *transport.Client) {
	t.Helper()
	if err := c.Call(&protocol.HelloReq{UserID: "probe", WireVersion: protocol.Version}, &protocol.HelloResp{}); err == nil {
		t.Fatal("connection was left open (leaked) after the pool dropped it")
	}
}

// TestPeerPoolResetRacingDialClosesConnection is the regression test for
// the dial/teardown leak: an epoch-bump Hello swaps the peer pool out
// while a dial toward the old membership is still in flight. The dialer
// must notice its pool entry is gone when the dial resolves and close the
// fresh connection instead of publishing (or leaking) it.
func TestPeerPoolResetRacingDialClosesConnection(t *testing.T) {
	net := transport.NewMemNetwork()
	gd := newGatedDialer(net)
	nA := servePeerNodeWithDialer(t, net, "alpha", gd)
	servePeerNode(t, net, "beta")
	book := []protocol.PeerAddr{
		{Name: "alpha", Addr: "mem://alpha"},
		{Name: "beta", Addr: "mem://beta"},
	}
	sA, qA, bufA := openPeerSession(t, nA, book)
	defer sA.Close()
	call(t, sA, &protocol.HelloReq{
		UserID: "peer-test", WireVersion: protocol.Version, Peers: book, Epoch: 1,
	}, &protocol.HelloResp{})

	pushCh := goCall(sA, &protocol.PushRangeReq{
		QueueID: qA, BufferID: bufA, PeerName: "beta", PeerBufferID: 1,
		Token: 1, Offset: 0, Size: 64, EventID: 2,
	})
	<-gd.dialing // the push's lane is now parked mid-dial

	// Membership changes underneath the dial.
	call(t, sA, &protocol.HelloReq{
		UserID: "peer-test", WireVersion: protocol.Version, Peers: book, Epoch: 2,
	}, &protocol.HelloResp{})
	close(gd.gate)

	err := mustFail(t, pushCh)
	wantCode(t, err, protocol.CodeNodeLost)
	assertClientClosed(t, gd.dialed(t))
}

// TestSessionCloseRacingDialClosesConnection: Close lands while a peer
// dial is in flight. The drain waits the dial out, and the connection it
// produced must be torn down with the pool — not leaked.
func TestSessionCloseRacingDialClosesConnection(t *testing.T) {
	net := transport.NewMemNetwork()
	gd := newGatedDialer(net)
	nA := servePeerNodeWithDialer(t, net, "alpha", gd)
	nB := servePeerNode(t, net, "beta")
	book := []protocol.PeerAddr{
		{Name: "alpha", Addr: "mem://alpha"},
		{Name: "beta", Addr: "mem://beta"},
	}
	sA, qA, bufA := openPeerSession(t, nA, book)
	sB, qB, bufB := openPeerSession(t, nB, book)
	defer sB.Close()

	awaitCh := goCall(sB, &protocol.AwaitPushReq{
		QueueID: qB, BufferID: bufB, Token: 21, Offset: 0, Size: 64, EventID: 1,
	})
	pushCh := goCall(sA, &protocol.PushRangeReq{
		QueueID: qA, BufferID: bufA, PeerName: "beta", PeerBufferID: bufB,
		Token: 21, Offset: 0, Size: 64, EventID: 2,
	})
	<-gd.dialing // the push's lane is parked mid-dial

	done := make(chan error, 1)
	go func() { done <- sA.Close() }()
	close(gd.gate)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session close hung behind the in-flight dial")
	}
	<-pushCh
	<-awaitCh
	assertClientClosed(t, gd.dialed(t))
}

// TestEpochHelloResetsParkedRendezvous: a repeat Hello with a bumped epoch
// is a membership change — any awaiter parked on a rendezvous must fail
// with the membership error instead of waiting for a counterpart that may
// no longer exist.
func TestEpochHelloResetsParkedRendezvous(t *testing.T) {
	net := transport.NewMemNetwork()
	nB := servePeerNode(t, net, "beta")
	sB, qB, bufB := openPeerSession(t, nB, nil)
	defer sB.Close()
	call(t, sB, &protocol.HelloReq{
		UserID: "peer-test", WireVersion: protocol.Version, Epoch: 1,
	}, &protocol.HelloResp{})

	awaitCh := goCall(sB, &protocol.AwaitPushReq{
		QueueID: qB, BufferID: bufB, Token: 9, Offset: 0, Size: 64, EventID: 1,
	})
	// Wait until the awaiter is actually parked on the rendezvous: the
	// lane runs asynchronously, and a reset that lands first has nothing
	// to fail.
	parkedEntry(t, nB, 9)

	call(t, sB, &protocol.HelloReq{
		UserID: "peer-test", WireVersion: protocol.Version, Epoch: 2,
	}, &protocol.HelloResp{})

	err := mustFail(t, awaitCh)
	wantCode(t, err, protocol.CodeNodeLost)
	if !strings.Contains(err.Error(), "membership changed") {
		t.Fatalf("awaiter error lost the membership cause: %v", err)
	}
}

// TestAwaitAfterMembershipChangeFails forces the order that used to hang
// the host for ever (DESIGN.md §7): a token's cancel — or its deposit —
// lands, a membership change resets the rendezvous, and only then does the
// token's AwaitPush execute. The reset must leave the verdict behind: an
// awaiter that finds nothing creates a fresh entry nobody will complete
// and parks on it until the session closes.
func TestAwaitAfterMembershipChangeFails(t *testing.T) {
	for _, first := range []struct {
		name string
		req  protocol.Message
	}{
		{"cancel", &protocol.CancelPushReq{Token: 11, Reason: "source push failed"}},
		{"deposit", &protocol.PeerPushReq{Token: 11, Data: make([]byte, 64)}},
	} {
		t.Run(first.name, func(t *testing.T) {
			net := transport.NewMemNetwork()
			nB := servePeerNode(t, net, "beta")
			sB, qB, bufB := openPeerSession(t, nB, nil)
			defer sB.Close()
			hello := func(epoch uint64) {
				call(t, sB, &protocol.HelloReq{
					UserID: "peer-test", WireVersion: protocol.Version, Epoch: epoch,
				}, &protocol.HelloResp{})
			}
			hello(1)
			call(t, sB, first.req, &protocol.EmptyResp{})
			call(t, sB, &protocol.CancelPushReq{Token: 12, Reason: "never awaited"}, &protocol.EmptyResp{})
			hello(2)

			err := mustFail(t, goCall(sB, &protocol.AwaitPushReq{
				QueueID: qB, BufferID: bufB, Token: 11, Offset: 0, Size: 64, EventID: 1,
			}))
			wantCode(t, err, protocol.CodeNodeLost)

			// The awaiter consumed its tombstone; the one nobody awaits
			// lasts exactly one more membership change.
			tokens := func() (n int) {
				nB.rdv.mu.Lock()
				defer nB.rdv.mu.Unlock()
				return len(nB.rdv.entries)
			}
			if n := tokens(); n != 1 {
				t.Fatalf("%d rendezvous entries after the await, want the unawaited tombstone alone", n)
			}
			hello(3)
			if n := tokens(); n != 0 {
				t.Fatalf("%d tombstones survive a second membership change", n)
			}
		})
	}
}

// parkedEntry waits until n's rendezvous holds an entry for token and
// returns it.
func parkedEntry(t *testing.T, n *Node, token uint64) *rdvEntry {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n.rdv.mu.Lock()
		e := n.rdv.entries[token]
		n.rdv.mu.Unlock()
		if e != nil {
			return e
		}
		if time.Now().After(deadline) {
			t.Fatalf("no rendezvous entry for token %d", token)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAwaiterLeavingOnCloseStrandsNothing: an AwaitPush that leaves its
// rendezvous entry because its session closed must not leave the entry
// open for a deposit nobody will consume. A pending entry becomes a
// tombstone that refuses the later deposit; one whose deposit already
// arrived is dropped and its body freed.
func TestAwaiterLeavingOnCloseStrandsNothing(t *testing.T) {
	t.Run("pending", func(t *testing.T) {
		net := transport.NewMemNetwork()
		nB := servePeerNode(t, net, "beta")
		sB, qB, bufB := openPeerSession(t, nB, nil)
		awaitCh := goCall(sB, &protocol.AwaitPushReq{
			QueueID: qB, BufferID: bufB, Token: 9, Offset: 0, Size: 64, EventID: 1,
		})
		parkedEntry(t, nB, 9)
		if err := sB.Close(); err != nil {
			t.Fatal(err)
		}
		mustFail(t, awaitCh)

		other, _, _ := openPeerSession(t, nB, nil)
		defer other.Close()
		callErr(t, other, &protocol.PeerPushReq{Token: 9, Data: make([]byte, 64)}, protocol.CodeBadRequest)
		nB.rdv.mu.Lock()
		defer nB.rdv.mu.Unlock()
		if e := nB.rdv.entries[9]; e == nil || e.data != nil {
			t.Fatal("token 9 after the abandoned await: want a tombstone without data")
		}
	})
	// A session's close can only race a deposit that wakes its awaiter, so
	// this order is driven on the rendezvous itself.
	t.Run("deposited", func(t *testing.T) {
		r := newRendezvous()
		e := r.entry(9)
		body := protocol.GetBuf(64)
		if _, err := r.deposit(9, body.B, 0); err != nil {
			t.Fatal(err)
		}
		(&depositAck{e: e}).KeepBody(body)
		r.abandon(9, e, errors.New("session closed"))
		if len(r.entries) != 0 {
			t.Fatal("the abandoned deposit stays in the rendezvous table")
		}
		if got := released(e); got != 2 {
			t.Fatalf("abandoned deposit released by %d parties, want 2 (freed once)", got)
		}
	})
}
