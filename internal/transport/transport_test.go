package transport

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/recycle"
)

// echoHandler answers Hello with the user ID as node name and fails every
// other op.
type echoHandler struct{ calls atomic.Int64 }

func (h *echoHandler) HandleCall(op protocol.Op, body []byte) (protocol.Message, error) {
	h.calls.Add(1)
	if op != protocol.OpHello {
		return nil, &protocol.RemoteError{Code: protocol.CodeUnsupported, Message: "nope"}
	}
	var req protocol.HelloReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	return &protocol.HelloResp{NodeName: "echo:" + req.UserID}, nil
}

func TestTCPCallRoundTrip(t *testing.T) {
	h := &echoHandler{}
	srv := NewStaticServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var resp protocol.HelloResp
	if err := client.Call(&protocol.HelloReq{UserID: "bob", WireVersion: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.NodeName != "echo:bob" {
		t.Fatalf("NodeName = %q", resp.NodeName)
	}
	if h.calls.Load() != 1 {
		t.Fatalf("handler called %d times", h.calls.Load())
	}
}

// TestHandshakeRefusalIsNotRetried: Handshake offers protocol.Version when
// the request names none, and a node of another version refusing the Hello
// is reported as it is, after exactly one Hello — there is no fallback
// version to retry at.
func TestHandshakeRefusalIsNotRetried(t *testing.T) {
	var hellos atomic.Int64
	var offered atomic.Uint32
	srv := NewStaticServer(HandlerFunc(func(op protocol.Op, body []byte) (protocol.Message, error) {
		var req protocol.HelloReq
		if err := protocol.DecodeMessage(&req, body); err != nil {
			return nil, err
		}
		hellos.Add(1)
		offered.Store(req.WireVersion)
		return nil, &protocol.RemoteError{Code: protocol.CodeUnsupported,
			Message: fmt.Sprintf("wire version %d unsupported: node speaks version 5", req.WireVersion)}
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	_, err = Handshake(client, protocol.HelloReq{UserID: "u"})
	var re *protocol.RemoteError
	if !errors.As(err, &re) || re.Code != protocol.CodeUnsupported || re.Op != protocol.OpHello {
		t.Fatalf("err = %v, want the node's CodeUnsupported refusal", err)
	}
	if n := hellos.Load(); n != 1 {
		t.Fatalf("node saw %d Hellos, want 1", n)
	}
	if v := offered.Load(); v != protocol.Version {
		t.Fatalf("Handshake offered version %d, want %d", v, protocol.Version)
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	srv := NewStaticServer(&echoHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	err = client.Call(&protocol.ShutdownReq{}, nil)
	var re *protocol.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Code != protocol.CodeUnsupported || re.Op != protocol.OpShutdown {
		t.Fatalf("remote error = %+v", re)
	}
	// The connection stays usable after a remote error.
	var resp protocol.HelloResp
	if err := client.Call(&protocol.HelloReq{UserID: "x"}, &resp); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	srv := NewStaticServer(&echoHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := fmt.Sprintf("user-%d", i)
			var resp protocol.HelloResp
			if err := client.Call(&protocol.HelloReq{UserID: user}, &resp); err != nil {
				errs <- err
				return
			}
			if resp.NodeName != "echo:"+user {
				errs <- fmt.Errorf("cross-talk: got %q for %q", resp.NodeName, user)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMemNetwork(t *testing.T) {
	net := NewMemNetwork()
	srv := NewStaticServer(&echoHandler{})
	if err := net.Register("mem://a", srv); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := net.Register("mem://a", srv); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := net.Dial("mem://missing"); err == nil {
		t.Fatal("dial to unbound address succeeded")
	}

	client, err := net.Dial("mem://a")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var resp protocol.HelloResp
	if err := client.Call(&protocol.HelloReq{UserID: "mem"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.NodeName != "echo:mem" {
		t.Fatalf("NodeName = %q", resp.NodeName)
	}
	net.Unregister("mem://a")
	if _, err := net.Dial("mem://a"); err == nil {
		t.Fatal("dial after unregister succeeded")
	}
}

func TestCallAfterClose(t *testing.T) {
	srv := NewStaticServer(&echoHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	if err := client.Call(&protocol.HelloReq{}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestServerCloseFailsInFlight(t *testing.T) {
	srv := NewStaticServer(&echoHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	srv.Close()
	if err := client.Call(&protocol.HelloReq{}, nil); err == nil {
		t.Fatal("call succeeded against closed server")
	}
}

// sessionHandler counts per-connection instances and records Close calls.
type sessionHandler struct {
	id     int
	closed *atomic.Int64
}

func (s *sessionHandler) HandleCall(op protocol.Op, body []byte) (protocol.Message, error) {
	return &protocol.HelloResp{NodeName: fmt.Sprintf("session-%d", s.id)}, nil
}

func (s *sessionHandler) Close() error {
	s.closed.Add(1)
	return nil
}

func TestPerConnectionSessions(t *testing.T) {
	var next atomic.Int64
	var closed atomic.Int64
	srv := NewServer(func() Handler {
		return &sessionHandler{id: int(next.Add(1)), closed: &closed}
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var names []string
	for i := 0; i < 2; i++ {
		client, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		var resp protocol.HelloResp
		if err := client.Call(&protocol.HelloReq{}, &resp); err != nil {
			t.Fatal(err)
		}
		names = append(names, resp.NodeName)
		client.Close()
	}
	if names[0] == names[1] {
		t.Fatalf("connections shared a session: %v", names)
	}
	// Session close hooks fire when connections drop.
	deadline := time.Now().Add(2 * time.Second)
	for closed.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("close hooks fired %d times, want 2", closed.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDispatchPanicIsNotSilent(t *testing.T) {
	// A handler returning a plain error is wrapped into CodeInternal.
	srv := NewStaticServer(HandlerFunc(func(op protocol.Op, body []byte) (protocol.Message, error) {
		return nil, errors.New("boom")
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	err = client.Call(&protocol.HelloReq{}, nil)
	var re *protocol.RemoteError
	if !errors.As(err, &re) || re.Code != protocol.CodeInternal {
		t.Fatalf("err = %v", err)
	}
}

func TestLargePayloadRoundTrip(t *testing.T) {
	srv := NewStaticServer(HandlerFunc(func(op protocol.Op, body []byte) (protocol.Message, error) {
		var req protocol.WriteBufferReq
		if err := protocol.DecodeMessage(&req, body); err != nil {
			return nil, err
		}
		return &protocol.ReadBufferResp{Data: req.Data}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	payload := make([]byte, 4<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var resp protocol.ReadBufferResp
	if err := client.Call(&protocol.WriteBufferReq{Data: payload}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Data) != len(payload) {
		t.Fatalf("echoed %d bytes, want %d", len(resp.Data), len(payload))
	}
	for i := 0; i < len(payload); i += 65537 {
		if resp.Data[i] != payload[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

// TestConnectionCycleAllocationBudget: a short-lived connection — a dial,
// one call, a close — stays as cheap as when each server connection had a
// reader goroutine, a dispatch goroutine and a frame channel between them
// (24.1 objects and 3.35 KB a cycle; pooled read buffers and one
// connection writer for both ends, its conditions held by value, made it
// 21.1 objects and 2.15 KB; a plain Handler, wrapped as an AsyncHandler,
// adds its wrapper and a done per call: 23.0 objects and 2.16 KB). An
// unpooled read buffer alone costs 4 KiB a side. Each cycle has its own server, whose Close returns once the
// connection's goroutines have given everything back to their pools.
func TestConnectionCycleAllocationBudget(t *testing.T) {
	if recycle.Race {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	const cycles, objBudget, byteBudget = 500, 24.2, 3400
	network := NewMemNetwork()
	h := HandlerFunc(func(protocol.Op, []byte) (protocol.Message, error) { return &protocol.EmptyResp{}, nil })
	req := &protocol.FinishQueueReq{QueueID: 1}
	cycle := func() {
		srv := NewStaticServer(h)
		if err := network.Register("mem://cycle", srv); err != nil {
			t.Fatal(err)
		}
		c, err := network.Dial("mem://cycle")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Call(req, nil); err != nil {
			t.Fatal(err)
		}
		c.Close()
		srv.Close()
		network.Unregister("mem://cycle")
	}
	for i := 0; i < 20; i++ {
		cycle() // fill the pools
	}
	// A collection empties the pools: keep it out of the measured cycles.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	objs := float64(after.Mallocs-before.Mallocs) / cycles
	size := float64(after.TotalAlloc-before.TotalAlloc) / cycles
	if objs > objBudget || size > byteBudget {
		t.Fatalf("a connection's cycle allocates %.1f objects and %.0f B, budget %.1f and %d B", objs, size, objBudget, byteBudget)
	}
}

// TestSerialRoundTripHandsOffNothing: a call its caller waits on at once is
// written by the caller on an idle connection, and a plain reply by the
// goroutine that read its request, so serial round trips wake neither
// end's writer goroutine. Pipelined calls still go through the host's
// writer, which packs what queues while it writes.
func TestSerialRoundTripHandsOffNothing(t *testing.T) {
	srv := NewStaticServer(&echoHandler{})
	defer srv.Close()
	hostEnd, nodeEnd := newMemConnPair()
	if err := srv.ServeConn(nodeEnd); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	nodeW := srv.conns[nodeEnd]
	srv.mu.Unlock()
	c := NewClient(hostEnd)
	defer c.Close()

	const serial = 100
	for i := 0; i < serial; i++ {
		var resp protocol.HelloResp
		if err := c.Call(&protocol.HelloReq{UserID: "u"}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	if host, node := c.w.wakes.Load(), nodeW.wakes.Load(); host != 0 || node != 0 {
		t.Fatalf("%d serial calls woke the host's writer %d times and the node's %d, want 0 and 0",
			serial, host, node)
	}

	const burst = 64
	calls := make([]*Pending, burst)
	for i := range calls {
		calls[i] = c.Go(&protocol.HelloReq{UserID: "u"}, nil)
	}
	for _, p := range calls {
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if wakes := c.w.wakes.Load(); wakes == 0 || wakes >= burst {
		t.Fatalf("%d pipelined calls woke the host's writer %d times, want between 1 and %d",
			burst, wakes, burst-1)
	}
}
