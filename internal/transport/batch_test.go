package transport

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/protocol"
)

// parseStream splits a byte stream back into frames.
func parseStream(t *testing.T, b []byte) []*protocol.Frame {
	t.Helper()
	r := bytes.NewReader(b)
	var frames []*protocol.Frame
	for r.Len() > 0 {
		f, err := protocol.ReadFrame(r)
		if err != nil {
			t.Fatalf("stream does not parse: %v", err)
		}
		frames = append(frames, f)
	}
	return frames
}

// writeCoalesced writes msgs through a fresh frameWriter.
func writeCoalesced(w *bytes.Buffer, msgs []protocol.Outgoing) error {
	fw := frameWriter{w: w}
	return fw.write(msgs...)
}

// writeOverhead is what a WriteBufferReq's body holds besides its payload
// when its wait list is empty.
const writeOverhead = 56

// writeMsg is request id: a write whose body is writeOverhead+size bytes.
func writeMsg(id uint64, size int) protocol.Outgoing {
	return protocol.NewOutgoing(protocol.FrameRequest, id, protocol.OpWriteBuffer,
		&protocol.WriteBufferReq{QueueID: id, Data: bytes.Repeat([]byte{byte(id)}, size)})
}

// TestWriteCoalesced checks the shared packing policy directly: runs
// of small messages become envelopes capped by the batch thresholds, bulk
// messages travel plain, and sub-frame order survives exactly.
func TestWriteCoalesced(t *testing.T) {
	if got := writeMsg(1, 0).Size; got != writeOverhead {
		t.Fatalf("an empty write's body is %d bytes, want %d", got, writeOverhead)
	}

	t.Run("single frame stays plain", func(t *testing.T) {
		var buf bytes.Buffer
		if err := writeCoalesced(&buf, []protocol.Outgoing{writeMsg(1, 10)}); err != nil {
			t.Fatal(err)
		}
		frames := parseStream(t, buf.Bytes())
		if len(frames) != 1 || frames[0].Kind != protocol.FrameRequest {
			t.Fatalf("frames = %+v", frames)
		}
	})

	t.Run("run of small frames becomes envelopes", func(t *testing.T) {
		const n = protocol.MaxBatchMessages*2 + 10 // 2 full envelopes + remainder
		in := make([]protocol.Outgoing, n)
		for i := range in {
			in[i] = writeMsg(uint64(i+1), 16)
		}
		var buf bytes.Buffer
		if err := writeCoalesced(&buf, in); err != nil {
			t.Fatal(err)
		}
		frames := parseStream(t, buf.Bytes())
		if len(frames) != 3 {
			t.Fatalf("got %d wire frames, want 3 envelopes", len(frames))
		}
		var order []uint64
		for _, f := range frames {
			if f.Kind != protocol.FrameBatch {
				t.Fatalf("non-batch frame in coalesced run: %+v", f)
			}
			subs, err := protocol.DecodeBatch(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, sub := range subs {
				order = append(order, sub.ReqID)
			}
		}
		if len(order) != n {
			t.Fatalf("decoded %d sub-frames, want %d", len(order), n)
		}
		for i, id := range order {
			if id != uint64(i+1) {
				t.Fatalf("order broken at %d: got req %d", i, id)
			}
		}
	})

	t.Run("bulk frames interleave plain", func(t *testing.T) {
		in := []protocol.Outgoing{
			writeMsg(1, 8),
			writeMsg(2, 8),
			writeMsg(3, protocol.BatchableBodyLimit-writeOverhead+1), // too big to envelope
			writeMsg(4, 8),
		}
		var buf bytes.Buffer
		if err := writeCoalesced(&buf, in); err != nil {
			t.Fatal(err)
		}
		frames := parseStream(t, buf.Bytes())
		if len(frames) != 3 {
			t.Fatalf("got %d wire frames, want envelope+plain+plain", len(frames))
		}
		if frames[0].Kind != protocol.FrameBatch ||
			frames[1].Kind != protocol.FrameRequest || frames[1].ReqID != 3 ||
			frames[2].Kind != protocol.FrameRequest || frames[2].ReqID != 4 {
			t.Fatalf("unexpected shapes: %v %v %v", frames[0].Kind, frames[1].Kind, frames[2].Kind)
		}
	})

	t.Run("byte threshold flushes early", func(t *testing.T) {
		// Each frame is just under the batchable limit, so roughly four
		// of them cross MaxBatchBytes; the run must split.
		in := make([]protocol.Outgoing, 8)
		for i := range in {
			in[i] = writeMsg(uint64(i+1), protocol.BatchableBodyLimit-writeOverhead)
		}
		var buf bytes.Buffer
		if err := writeCoalesced(&buf, in); err != nil {
			t.Fatal(err)
		}
		frames := parseStream(t, buf.Bytes())
		if len(frames) < 2 {
			t.Fatalf("byte threshold ignored: %d wire frames", len(frames))
		}
	})
}

// TestBatchedClientRoundTrip hammers a batching client from many
// goroutines over TCP; every future must resolve with its own response.
func TestBatchedClientRoundTrip(t *testing.T) {
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
	errs := make(chan error, 128)
	for i := 0; i < 128; i++ {
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

// TestBatchedOrderPreserved issues a long pipelined burst from one
// goroutine; the server must execute the requests in Go order even though
// they arrive packed in envelopes.
func TestBatchedOrderPreserved(t *testing.T) {
	var mu sync.Mutex
	var served []string
	srv := NewStaticServer(HandlerFunc(func(op protocol.Op, body []byte) (protocol.Message, error) {
		var req protocol.HelloReq
		if err := protocol.DecodeMessage(&req, body); err != nil {
			return nil, err
		}
		mu.Lock()
		served = append(served, req.UserID)
		mu.Unlock()
		return &protocol.EmptyResp{}, nil
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

	const n = 500
	futures := make([]*Pending, n)
	for i := range futures {
		futures[i] = client.Go(&protocol.HelloReq{UserID: fmt.Sprintf("%06d", i)}, nil)
	}
	for i, p := range futures {
		if err := p.Wait(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(served) != n {
		t.Fatalf("served %d, want %d", len(served), n)
	}
	for i, u := range served {
		if u != fmt.Sprintf("%06d", i) {
			t.Fatalf("execution order broken at %d: %q", i, u)
		}
	}
}

// TestServerBatchedResponses speaks the raw wire to the server: a request
// envelope must come back as a response envelope covering exactly its
// requests, in order.
func TestServerBatchedResponses(t *testing.T) {
	srv := NewStaticServer(&echoHandler{})
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

	var subs []*protocol.Frame
	for i := 1; i <= 3; i++ {
		subs = append(subs, &protocol.Frame{
			Kind: protocol.FrameRequest, ReqID: uint64(i), Op: protocol.OpHello,
			Body: protocol.EncodeMessage(&protocol.HelloReq{UserID: fmt.Sprintf("u%d", i)}),
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
	if len(out) != 3 {
		t.Fatalf("response envelope has %d sub-frames, want 3", len(out))
	}
	for i, f := range out {
		if f.Kind != protocol.FrameResponse || f.ReqID != uint64(i+1) {
			t.Fatalf("sub-frame %d: kind %d req %d", i, f.Kind, f.ReqID)
		}
		var hr protocol.HelloResp
		if err := protocol.DecodeMessage(&hr, f.Body); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("echo:u%d", i+1); hr.NodeName != want {
			t.Fatalf("sub-frame %d: NodeName %q, want %q", i, hr.NodeName, want)
		}
	}
}

// TestServerDropsMalformedBatch sends a corrupt envelope; the server must
// drop the connection without disturbing other sessions.
func TestServerDropsMalformedBatch(t *testing.T) {
	srv := NewStaticServer(&echoHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	good, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bad := &protocol.Frame{Kind: protocol.FrameBatch, Op: protocol.OpBatch,
		Body: []byte{0xFF, 0xFF, 0xFF, 0xFF}} // hostile count
	if err := protocol.WriteFrame(conn, bad); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a malformed envelope")
	}
	conn.Close()

	var resp protocol.HelloResp
	if err := good.Call(&protocol.HelloReq{UserID: "ok"}, &resp); err != nil {
		t.Fatalf("healthy session broken: %v", err)
	}
}

// TestBatchedBulkPayload mixes small control calls with a payload above
// the batchable limit; both must round-trip through the coalescing writer.
func TestBatchedBulkPayload(t *testing.T) {
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

	payload := make([]byte, protocol.BatchableBodyLimit*4)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	small := client.Go(&protocol.WriteBufferReq{Data: []byte{1, 2, 3}}, nil)
	var bulk protocol.ReadBufferResp
	bulkPending := client.Go(&protocol.WriteBufferReq{Data: payload}, &bulk)
	small2 := client.Go(&protocol.WriteBufferReq{Data: []byte{4}}, nil)
	for i, p := range []*Pending{small, bulkPending, small2} {
		if err := p.Wait(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if !bytes.Equal(bulk.Data, payload) {
		t.Fatal("bulk payload corrupted through the batching path")
	}
}

// TestWriterDiesWithConnection checks the coalescer's writer goroutine is
// torn down when the peer vanishes, without an explicit Close: sends after
// the failure must settle immediately through the dead-writer path, and
// the goroutine population must return to its baseline.
func TestWriterDiesWithConnection(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv := NewStaticServer(&echoHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 20
	for i := 0; i < clients; i++ {
		client, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Call(&protocol.HelloReq{UserID: "x"}, nil); err != nil {
			t.Fatal(err)
		}
		// Kill the transport out from under the client — no Close.
		client.conn.Close()
		if err := client.Go(&protocol.HelloReq{}, nil).Wait(); err == nil {
			t.Fatal("send on dead connection resolved successfully")
		}
	}

	// Both per-client goroutines (reader and writer) must unwind.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchedClientServerDeath kills the server under a batching client
// with futures in flight; all must resolve to the sticky error quickly.
func TestBatchedClientServerDeath(t *testing.T) {
	block := make(chan struct{})
	srv := NewStaticServer(HandlerFunc(func(op protocol.Op, body []byte) (protocol.Message, error) {
		<-block
		return &protocol.EmptyResp{}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	futures := make([]*Pending, 16)
	for i := range futures {
		futures[i] = client.Go(&protocol.HelloReq{UserID: "doomed"}, nil)
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	time.Sleep(20 * time.Millisecond)
	close(block)
	<-closed

	for i, p := range futures {
		done := make(chan error, 1)
		go func() { done <- p.Wait() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("future %d hung after node death", i)
		}
	}
	if err := client.Go(&protocol.HelloReq{}, nil).Wait(); err == nil {
		t.Fatal("future on dead connection resolved successfully")
	}
}
