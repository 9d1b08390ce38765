package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/protocol"
)

// holdingHandler is an AsyncHandler that parks requests whose UserID is
// "hold" and completes them — in LIFO order, from another goroutine — when
// a "release" request arrives. It models lanes finishing work out of
// arrival order, which is what the server's reply path must absorb.
type holdingHandler struct {
	mu   sync.Mutex
	held []func()
}

func (h *holdingHandler) respond(user string) (protocol.Message, error) {
	return &protocol.HelloResp{NodeName: "echo:" + user}, nil
}

func (h *holdingHandler) HandleCall(op protocol.Op, body []byte) (protocol.Message, error) {
	var req protocol.HelloReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	return h.respond(req.UserID)
}

func (h *holdingHandler) HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error)) {
	var req protocol.HelloReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		done(nil, err)
		return
	}
	switch req.UserID {
	case "hold":
		h.mu.Lock()
		h.held = append(h.held, func() { done(h.respond("hold")) })
		h.mu.Unlock()
	case "release":
		h.mu.Lock()
		held := h.held
		h.held = nil
		h.mu.Unlock()
		go func() {
			for i := len(held) - 1; i >= 0; i-- { // LIFO: maximally out of order
				held[i]()
			}
			done(h.respond("release"))
		}()
	default:
		done(h.respond(req.UserID))
	}
}

// TestAsyncOutOfOrderResponses checks that plain (non-enveloped) requests
// completed out of order each get their own response immediately, with
// request-ID correlation intact.
func TestAsyncOutOfOrderResponses(t *testing.T) {
	srv := NewStaticServer(&holdingHandler{})
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

	var h1, h2, rel protocol.HelloResp
	p1 := client.Go(&protocol.HelloReq{UserID: "hold"}, &h1)
	p2 := client.Go(&protocol.HelloReq{UserID: "hold"}, &h2)
	pr := client.Go(&protocol.HelloReq{UserID: "release"}, &rel)
	for i, p := range []*Pending{p1, p2, pr} {
		if err := p.Wait(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if h1.NodeName != "echo:hold" || h2.NodeName != "echo:hold" || rel.NodeName != "echo:release" {
		t.Fatalf("responses miscorrelated: %q %q %q", h1.NodeName, h2.NodeName, rel.NodeName)
	}
}

// TestAsyncEnvelopeCoalescedOutOfOrder speaks the raw wire: a request
// envelope whose sub-requests complete in reverse order must still come
// back as one response envelope with each response in its request's
// position.
func TestAsyncEnvelopeCoalescedOutOfOrder(t *testing.T) {
	srv := NewStaticServer(&holdingHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	users := []string{"hold", "hold", "release"}
	var subs []*protocol.Frame
	for i, u := range users {
		subs = append(subs, &protocol.Frame{
			Kind: protocol.FrameRequest, ReqID: uint64(i + 1), Op: protocol.OpHello,
			Body: protocol.EncodeMessage(&protocol.HelloReq{UserID: u}),
		})
	}
	env, err := protocol.EncodeBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.WriteFrame(conn, env); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := protocol.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != protocol.FrameBatch {
		t.Fatalf("response kind = %d, want batch envelope", resp.Kind)
	}
	out, err := protocol.DecodeBatch(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(users) {
		t.Fatalf("response envelope has %d sub-frames, want %d", len(out), len(users))
	}
	for i, f := range out {
		if f.ReqID != uint64(i+1) {
			t.Fatalf("sub-frame %d carries req %d: envelope positions not preserved", i, f.ReqID)
		}
		var hr protocol.HelloResp
		if err := protocol.DecodeMessage(&hr, f.Body); err != nil {
			t.Fatal(err)
		}
		if want := "echo:" + users[i]; hr.NodeName != want {
			t.Fatalf("sub-frame %d: NodeName %q, want %q", i, hr.NodeName, want)
		}
	}
}

// bulkEcho echoes WriteBuffer payloads back asynchronously, so envelope
// responses can mix small and bulk bodies.
type bulkEcho struct{}

func (bulkEcho) HandleCall(op protocol.Op, body []byte) (protocol.Message, error) {
	var req protocol.WriteBufferReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	return &protocol.ReadBufferResp{Data: req.Data}, nil
}

func (b bulkEcho) HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error)) {
	go func() { done(b.HandleCall(op, body)) }()
}

// TestAsyncEnvelopeBulkResponseTravelsAlone checks the packing policy on
// the assembled reply path: a bulk response inside an envelope is written
// as a plain frame while its small siblings coalesce.
func TestAsyncEnvelopeBulkResponseTravelsAlone(t *testing.T) {
	srv := NewStaticServer(bulkEcho{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	payload := make([]byte, protocol.BatchableBodyLimit*2)
	for i := range payload {
		payload[i] = byte(i)
	}
	subs := []*protocol.Frame{
		{Kind: protocol.FrameRequest, ReqID: 1, Op: protocol.OpWriteBuffer,
			Body: protocol.EncodeMessage(&protocol.WriteBufferReq{Data: []byte{1, 2}})},
		{Kind: protocol.FrameRequest, ReqID: 2, Op: protocol.OpWriteBuffer,
			Body: protocol.EncodeMessage(&protocol.WriteBufferReq{Data: payload})},
		{Kind: protocol.FrameRequest, ReqID: 3, Op: protocol.OpWriteBuffer,
			Body: protocol.EncodeMessage(&protocol.WriteBufferReq{Data: []byte{3}})},
	}
	env, err := protocol.EncodeBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.WriteFrame(conn, env); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	seen := make(map[uint64]bool)
	sawBulkPlain := false
	for len(seen) < 3 {
		f, err := protocol.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind == protocol.FrameBatch {
			out, err := protocol.DecodeBatch(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, sub := range out {
				if len(sub.Body) > protocol.BatchableBodyLimit {
					t.Fatal("bulk response shipped inside an envelope")
				}
				seen[sub.ReqID] = true
			}
			continue
		}
		if len(f.Body) > protocol.BatchableBodyLimit {
			sawBulkPlain = true
		}
		seen[f.ReqID] = true
	}
	if !sawBulkPlain {
		t.Fatal("bulk response never arrived as a plain frame")
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("missing responses: %v", seen)
	}
}

// TestAsyncCompletionAfterConnectionDeath makes sure a late completion —
// the lane finishing after the connection died — is dropped quietly
// instead of panicking or blocking the handler.
func TestAsyncCompletionAfterConnectionDeath(t *testing.T) {
	release := make(chan struct{})
	completed := make(chan error, 1)
	srv := NewStaticServer(asyncFunc(func(op protocol.Op, body []byte, done func(protocol.Message, error)) {
		go func() {
			<-release
			done(&protocol.EmptyResp{}, nil)
			completed <- nil
		}()
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
	client.Go(&protocol.HelloReq{UserID: "doomed"}, nil)
	time.Sleep(20 * time.Millisecond) // let the request reach the handler
	client.Close()
	close(release)
	select {
	case <-completed:
	case <-time.After(5 * time.Second):
		t.Fatal("late completion blocked after connection death")
	}
}

// asyncFunc adapts a function to AsyncHandler (with a trivial sync path).
type asyncFunc func(op protocol.Op, body []byte, done func(protocol.Message, error))

func (f asyncFunc) HandleCall(op protocol.Op, body []byte) (protocol.Message, error) {
	ch := make(chan asyncOutcome, 1)
	f(op, body, func(m protocol.Message, err error) { ch <- asyncOutcome{m, err} })
	out := <-ch
	return out.msg, out.err
}

func (f asyncFunc) HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error)) {
	f(op, body, done)
}

type asyncOutcome struct {
	msg protocol.Message
	err error
}
