package transport

import (
	"bytes"
	"sync"
	"testing"

	"github.com/haocl-project/haocl/internal/protocol"
)

// These tests pin down who owns a bulk payload on each side of a
// connection (DESIGN.md §11): sent from where it lies, never copied, on
// the way out; pooled on the server's way in, except the one body a
// handler parks.

// writeRecorder records each Write's slice as handed over, without
// copying, so a test can tell a referenced payload from a staged copy.
type writeRecorder struct {
	writes [][]byte
	stream bytes.Buffer
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.writes = append(w.writes, p)
	return w.stream.Write(p)
}

// TestFrameWriterReferencesBulkPayload: a bulk message reaches the
// connection as its header and leading fields, the caller's own payload
// slice, and its trailing fields — and the stream is byte-identical to
// staging every message whole. Small messages around it still coalesce,
// and a pooled payload goes back to its pool once written either way.
func TestFrameWriterReferencesBulkPayload(t *testing.T) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	req := &protocol.WriteBufferReq{QueueID: 1, BufferID: 2, Data: payload, EventID: 3, WaitEvents: []int64{4}}
	small := func(id uint64) protocol.Outgoing {
		return protocol.NewOutgoing(protocol.FrameRequest, id, protocol.OpFinishQueue, &protocol.FinishQueueReq{QueueID: id})
	}
	msgs := []protocol.Outgoing{small(1), small(2),
		protocol.NewOutgoing(protocol.FrameRequest, 3, req.Op(), req), small(4)}

	rec := &writeRecorder{}
	fw := frameWriter{w: rec}
	if err := fw.write(msgs...); err != nil {
		t.Fatal(err)
	}
	// envelope(1,2) | bulk head | payload | bulk tail | plain(4)
	if len(rec.writes) != 5 {
		t.Fatalf("%d writes, want 5", len(rec.writes))
	}
	if w := rec.writes[2]; len(w) != len(payload) || &w[0] != &payload[0] {
		t.Fatal("the bulk payload was staged into another buffer instead of written in place")
	}

	want := protocol.AppendOutgoingBatch(nil, msgs[:2])
	for i := range msgs[2:] {
		want = protocol.AppendOutgoing(want, &msgs[2+i])
	}
	if !bytes.Equal(rec.stream.Bytes(), want) {
		t.Fatal("the vectored stream differs from staging every message whole")
	}
	got := parseStream(t, rec.stream.Bytes())
	if len(got) != 3 || got[0].Kind != protocol.FrameBatch || got[1].ReqID != 3 || got[2].ReqID != 4 {
		t.Fatalf("unexpected wire shape: %d frames", len(got))
	}
	var back protocol.WriteBufferReq
	if err := protocol.DecodeMessage(&back, got[1].Body); err != nil || !bytes.Equal(back.Data, payload) {
		t.Fatalf("bulk frame does not decode to its payload: %v", err)
	}
	// The writer is reusable and keeps nothing of what it wrote reachable.
	for _, piece := range fw.vec {
		if piece != nil {
			t.Fatal("frameWriter keeps a written payload reachable through its vector")
		}
	}

	// Pooled read snapshots, one staged and one written in place.
	snapshot := func(id uint64, n int) (*protocol.Buf, protocol.Outgoing) {
		pooled := protocol.GetBuf(n)
		return pooled, protocol.NewOutgoing(protocol.FrameResponse, id, protocol.OpReadBuffer,
			&protocol.ReadBufferResp{Data: pooled.B, Pooled: pooled})
	}
	staged, m1 := snapshot(1, protocol.ReferenceFloor)
	inPlace, m2 := snapshot(2, protocol.BatchableBodyLimit+1)
	if err := fw.write(m1, m2); err != nil {
		t.Fatal(err)
	}
	if staged.B != nil || inPlace.B != nil {
		t.Fatal("the writer kept a pooled payload it has written")
	}
}

// borrowedWrite is a write whose payload is lent until the writer frees it
// (freer), as a host's pooled write record lends its bytes: Free
// scribbles over the payload, as the record's next user would.
type borrowedWrite struct {
	protocol.WriteBufferReq
	frees int
}

func (m *borrowedWrite) Free() {
	m.frees++
	for i := range m.Data {
		m.Data[i] = 0xEE
	}
}

// TestWriterFreesBorrowedPayloads: the writer frees a message that borrowed
// its payload exactly once, and only once its bytes are staged — alone or
// in an envelope — or written in place, so the stream carries the bytes
// the message was given whatever the lender does with them next.
func TestWriterFreesBorrowedPayloads(t *testing.T) {
	var msgs []protocol.Outgoing
	var sent []*borrowedWrite
	var want [][]byte
	for i, n := range []int{64, protocol.ReferenceFloor, protocol.BatchableBodyLimit + 1, 4 << 10} {
		m := &borrowedWrite{WriteBufferReq: protocol.WriteBufferReq{QueueID: uint64(i), Data: make([]byte, n)}}
		for j := range m.Data {
			m.Data[j] = byte(i + j)
		}
		want = append(want, append([]byte(nil), m.Data...))
		sent = append(sent, m)
		msgs = append(msgs, protocol.NewOutgoing(protocol.FrameRequest, uint64(i+1), m.Op(), m))
	}
	rec := &writeRecorder{}
	fw := frameWriter{w: rec}
	if err := fw.write(msgs...); err != nil {
		t.Fatal(err)
	}
	for i, m := range sent {
		if m.frees != 1 {
			t.Fatalf("message %d freed %d times, want once", i, m.frees)
		}
	}
	// envelope(0,1) | bulk 2 | plain 3
	var got [][]byte
	for _, f := range parseStream(t, rec.stream.Bytes()) {
		subs := []*protocol.Frame{f}
		if f.Kind == protocol.FrameBatch {
			var err error
			if subs, err = protocol.DecodeBatch(f); err != nil {
				t.Fatal(err)
			}
		}
		for _, sub := range subs {
			var req protocol.WriteBufferReq
			if err := protocol.DecodeMessage(&req, sub.Body); err != nil {
				t.Fatal(err)
			}
			got = append(got, req.Data)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d writes on the wire, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("write %d (%d B) carries bytes its lender wrote after the free", i, len(want[i]))
		}
	}
}

// parkingHandler keeps the body of every PeerPush it is handed — as a
// node's rendezvous table does — answering with a BodyKeeper, and drops
// everything else.
type parkingHandler struct {
	mu     sync.Mutex
	parked map[uint64][]byte // token → Data, a view of the request body
}

// parkedAck takes a deposit's pooled body over and never frees it: the
// handler keeps viewing it.
type parkedAck struct{ protocol.EmptyResp }

func (*parkedAck) KeepBody(*protocol.Buf) {}

func (h *parkingHandler) HandleCall(op protocol.Op, body []byte) (protocol.Message, error) {
	if op == protocol.OpPeerPush {
		var req protocol.PeerPushReq
		if err := protocol.DecodeMessage(&req, body); err != nil {
			return nil, err
		}
		h.mu.Lock()
		h.parked[req.Token] = req.Data
		h.mu.Unlock()
		return &parkedAck{}, nil
	}
	return &protocol.EmptyResp{}, nil
}

// TestParkedDepositSurvivesBulkTraffic: a PeerPush body parked by the
// handler must still hold its bytes after any number of later bulk frames
// on the same connection — those recycle pooled bodies, and a deposit's,
// handed to its BodyKeeper response, is never one of them.
func TestParkedDepositSurvivesBulkTraffic(t *testing.T) {
	h := &parkingHandler{parked: make(map[uint64][]byte)}
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

	const size = 256 << 10
	fill := func(seed byte) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = seed + byte(i)
		}
		return b
	}
	const deposits = 4
	for tok := uint64(1); tok <= deposits; tok++ {
		if err := client.Call(&protocol.PeerPushReq{Token: tok, Data: fill(byte(tok))}, nil); err != nil {
			t.Fatal(err)
		}
		// Same-sized bulk writes in between: their bodies come from, and
		// go back to, the size class a deposit's body would share.
		var pend []*Pending
		for i := 0; i < 16; i++ {
			pend = append(pend, client.Go(&protocol.WriteBufferReq{QueueID: 1, Data: fill(byte(100 + i))}, nil))
		}
		for _, p := range pend {
			if err := p.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for tok := uint64(1); tok <= deposits; tok++ {
		if !bytes.Equal(h.parked[tok], fill(byte(tok))) {
			t.Fatalf("deposit %d was overwritten while parked", tok)
		}
	}
}

// TestBulkResponsesAreNeverRecycled: the client's response bodies belong
// to whoever decoded a message from them, for good — a hundred further
// bulk responses on the connection leave the first one's bytes alone.
func TestBulkResponsesAreNeverRecycled(t *testing.T) {
	srv := NewStaticServer(HandlerFunc(func(op protocol.Op, body []byte) (protocol.Message, error) {
		var req protocol.ReadBufferReq
		if err := protocol.DecodeMessage(&req, body); err != nil {
			return nil, err
		}
		// A pooled snapshot, as the node's read path produces.
		pooled := protocol.GetBuf(int(req.Size))
		for i := range pooled.B {
			pooled.B[i] = byte(req.Offset) + byte(i)
		}
		return &protocol.ReadBufferResp{Data: pooled.B, Pooled: pooled}, nil
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

	const size = 128 << 10
	read := func(seed int64) []byte {
		var resp protocol.ReadBufferResp
		if err := client.Call(&protocol.ReadBufferReq{Offset: seed, Size: size}, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Data
	}
	first := read(1)
	for i := int64(2); i < 102; i++ {
		if got := read(i); got[0] != byte(i) || got[255] != byte(i)+255 {
			t.Fatalf("read %d returned wrong bytes", i)
		}
	}
	for i, b := range first {
		if b != 1+byte(i) {
			t.Fatalf("first read's data changed at byte %d after later reads", i)
		}
	}
}
