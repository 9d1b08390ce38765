package transport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/protocol"
)

// TestEnvelopeRecordReuse drives one connection's reply writer through
// envelopes of different lengths, each with a failure answered alone
// before its mates: once an envelope's last reply is written its record
// goes back cleared, holding no response and no frame, and the next
// envelope reuses it with every slot its own.
func TestEnvelopeRecordReuse(t *testing.T) {
	var wire bytes.Buffer
	w := &replyWriter{fw: frameWriter{w: &wire}}
	var first *respEnvelope
	nextID := uint64(1)
	for round, n := range []int{3, 1, 6, 2} {
		subs := make([]protocol.Frame, n)
		for i := range subs {
			subs[i] = protocol.Frame{Kind: protocol.FrameRequest, ReqID: nextID, Op: protocol.OpHello}
			nextID++
		}
		f := &protocol.Frame{Kind: protocol.FrameBatch}
		env := w.envelope(f, subs)
		if first == nil {
			first = env
		} else if env != first {
			t.Fatalf("round %d: a new envelope record, want the spare one", round)
		}
		if env.frame != f || env.remaining != n || len(env.replies) != n {
			t.Fatalf("round %d: record holds frame %p, %d remaining, %d slots; want %p, %d, %d",
				round, env.frame, env.remaining, len(env.replies), f, n, n)
		}
		for i, o := range env.replies {
			want := protocol.Outgoing{Kind: protocol.FrameResponse, ReqID: subs[i].ReqID, Op: protocol.OpHello}
			if o != want {
				t.Fatalf("round %d: slot %d reads %+v, want %+v", round, i, o, want)
			}
		}
		// The last request fails first; the others complete in reverse.
		w.complete(replyTo{env: env, idx: n - 1}, nil, fmt.Errorf("round %d fails", round))
		for i := n - 2; i >= 0; i-- {
			w.complete(replyTo{env: env, idx: i}, &protocol.HelloResp{NodeName: fmt.Sprint(subs[i].ReqID)}, nil)
		}
		if len(w.spare) != 1 || w.spare[0] != env {
			t.Fatalf("round %d: %d spare records after the last reply, want this one", round, len(w.spare))
		}
		if env.frame != nil || len(env.replies) != 0 {
			t.Fatalf("round %d: spare record keeps frame %p and %d slots", round, env.frame, len(env.replies))
		}
		for i, o := range env.replies[:cap(env.replies)] {
			if o != (protocol.Outgoing{}) {
				t.Fatalf("round %d: spare slot %d keeps %+v", round, i, o)
			}
		}
	}

	// On the wire: each failure alone, then its envelope's successes in
	// request order.
	var got []string
	for wire.Len() > 0 {
		f, err := protocol.ReadFrame(&wire)
		if err != nil {
			t.Fatal(err)
		}
		subs := []*protocol.Frame{f}
		if f.Kind == protocol.FrameBatch {
			if subs, err = protocol.DecodeBatch(f); err != nil {
				t.Fatal(err)
			}
		}
		for _, sub := range subs {
			if sub.Op == protocol.OpError {
				got = append(got, fmt.Sprintf("%d:error", sub.ReqID))
				continue
			}
			var hr protocol.HelloResp
			if err := protocol.DecodeMessage(&hr, sub.Body); err != nil {
				t.Fatal(err)
			}
			if hr.NodeName != fmt.Sprint(sub.ReqID) {
				t.Fatalf("request %d answered with request %s's response", sub.ReqID, hr.NodeName)
			}
			got = append(got, fmt.Sprint(sub.ReqID))
		}
	}
	want := "[3:error 1 2 4:error 10:error 5 6 7 8 9 12:error 11]"
	if fmt.Sprint(got) != want {
		t.Fatalf("responses in wire order %v, want %s", got, want)
	}
}

// TestBackToBackEnvelopesMixingFailures streams envelopes of different
// lengths over a real connection without waiting: each mixes a failure
// answered alone with held requests a later envelope's member completes
// from another goroutine, so records are recycled on one goroutine while
// the dispatch loop takes them on another. Every request must be answered
// once, with its own response.
func TestBackToBackEnvelopesMixingFailures(t *testing.T) {
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

	users := make(map[uint64]string)
	nextID := uint64(1)
	var wire []byte
	for round := 0; round < 40; round++ {
		var subs []*protocol.Frame
		add := func(user string) {
			users[nextID] = user
			subs = append(subs, &protocol.Frame{
				Kind: protocol.FrameRequest, ReqID: nextID, Op: protocol.OpHello,
				Body: protocol.EncodeMessage(&protocol.HelloReq{UserID: user}),
			})
			nextID++
		}
		for i := 0; i < 1+round%5; i++ {
			add(fmt.Sprintf("u%d-%d", round, i))
		}
		switch round % 3 {
		case 0:
			add("fail")
			add("hold")
		case 1:
			add("hold")
			add("fail")
			add("release")
		}
		env, err := protocol.EncodeBatch(subs)
		if err != nil {
			t.Fatal(err)
		}
		if wire, err = protocol.AppendFrame(wire, env); err != nil {
			t.Fatal(err)
		}
	}
	// The last release frees whatever is still held.
	users[nextID] = "release"
	wire, err = protocol.AppendFrame(wire, &protocol.Frame{
		Kind: protocol.FrameRequest, ReqID: nextID, Op: protocol.OpHello,
		Body: protocol.EncodeMessage(&protocol.HelloReq{UserID: "release"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	go conn.Write(wire)

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	answered := make(map[uint64]bool)
	for len(answered) < len(users) {
		f, err := protocol.ReadFrame(conn)
		if err != nil {
			t.Fatalf("after %d of %d responses: %v", len(answered), len(users), err)
		}
		subs := []*protocol.Frame{f}
		if f.Kind == protocol.FrameBatch {
			if subs, err = protocol.DecodeBatch(f); err != nil {
				t.Fatal(err)
			}
		}
		for _, sub := range subs {
			user, ok := users[sub.ReqID]
			if !ok || answered[sub.ReqID] {
				t.Fatalf("response to request %d: unknown or answered twice", sub.ReqID)
			}
			answered[sub.ReqID] = true
			if user == "fail" {
				if sub.Op != protocol.OpError {
					t.Fatalf("failing request %d answered with %s", sub.ReqID, sub.Op)
				}
				continue
			}
			var hr protocol.HelloResp
			if sub.Op != protocol.OpHello || protocol.DecodeMessage(&hr, sub.Body) != nil || hr.NodeName != "echo:"+user {
				t.Fatalf("request %d (%s) answered with %s %q", sub.ReqID, user, sub.Op, hr.NodeName)
			}
		}
	}
}

// slotHandler keeps each request's user and done for the test to
// complete when and from where it likes.
type slotHandler struct {
	mu     sync.Mutex
	parked []slotCall
}

type slotCall struct {
	user string
	done func(protocol.Message, error)
}

func (h *slotHandler) HandleCall(protocol.Op, []byte) (protocol.Message, error) {
	panic("slotHandler is asynchronous")
}

func (h *slotHandler) HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error)) {
	var req protocol.HelloReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		done(nil, err)
		return
	}
	h.mu.Lock()
	h.parked = append(h.parked, slotCall{req.UserID, done})
	h.mu.Unlock()
}

// answeringHandler answers every request at once with the same response.
type answeringHandler struct{ resp protocol.HelloResp }

func (h *answeringHandler) HandleCall(protocol.Op, []byte) (protocol.Message, error) {
	return &h.resp, nil
}

func (h *answeringHandler) HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error)) {
	done(&h.resp, nil)
}

// helloEnvelope packs one Hello request per ID into an envelope, each
// naming its request ID as its user.
func helloEnvelope(t *testing.T, ids ...uint64) *protocol.Frame {
	t.Helper()
	subs := make([]*protocol.Frame, len(ids))
	for i, id := range ids {
		subs[i] = &protocol.Frame{Kind: protocol.FrameRequest, ReqID: id, Op: protocol.OpHello,
			Body: protocol.EncodeMessage(&protocol.HelloReq{UserID: fmt.Sprint(id)})}
	}
	f, err := protocol.EncodeBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEnvelopeSlotDoneBoundOnce: an envelope member is dispatched with its
// slot's done, made once per slot and kept with the record. Back-to-back
// envelopes of different lengths reuse one record, and their members
// complete out of order from two goroutines: each response must reach its
// own request ID. Dispatching an envelope whose record has its slots
// allocates nothing (checked without the race detector).
func TestEnvelopeSlotDoneBoundOnce(t *testing.T) {
	var wire bytes.Buffer
	h := &slotHandler{}
	d := newDispatcher(&replyWriter{fw: frameWriter{w: &wire}}, h)
	var record *respEnvelope
	nextID := uint64(1)
	for round, n := range []int{4, 7, 3, 7} {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i], nextID = nextID, nextID+1
		}
		if err := d.dispatch(helloEnvelope(t, ids...)); err != nil {
			t.Fatal(err)
		}
		h.mu.Lock()
		parked := h.parked
		h.parked = nil
		h.mu.Unlock()
		if len(parked) != n {
			t.Fatalf("round %d: %d requests dispatched, want %d", round, len(parked), n)
		}
		// One goroutine completes the even members, the other the odd ones,
		// each from the last to the first.
		var wg sync.WaitGroup
		for parity := 0; parity < 2; parity++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := n - 1 - (n-1+parity)%2; i >= 0; i -= 2 {
					parked[i].done(&protocol.HelloResp{NodeName: parked[i].user}, nil)
				}
			}()
		}
		wg.Wait()
		if len(d.w.spare) != 1 || (record != nil && d.w.spare[0] != record) {
			t.Fatalf("round %d: %d spare records, want the one record every round reuses", round, len(d.w.spare))
		}
		record = d.w.spare[0]
	}
	if len(record.dones) < 7 {
		t.Fatalf("the record has %d slot dones after an envelope of 7", len(record.dones))
	}

	answered := make(map[uint64]bool)
	for wire.Len() > 0 {
		f, err := protocol.ReadFrame(&wire)
		if err != nil {
			t.Fatal(err)
		}
		subs, err := protocol.DecodeBatch(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			var hr protocol.HelloResp
			if err := protocol.DecodeMessage(&hr, sub.Body); err != nil {
				t.Fatal(err)
			}
			if hr.NodeName != fmt.Sprint(sub.ReqID) || answered[sub.ReqID] {
				t.Fatalf("request %d answered with request %q's response, or twice", sub.ReqID, hr.NodeName)
			}
			answered[sub.ReqID] = true
		}
	}
	if len(answered) != int(nextID-1) {
		t.Fatalf("%d of %d requests answered", len(answered), nextID-1)
	}

	if raceEnabled {
		return // sync.Pool drops a quarter of what it is given: the writer's codec misses
	}
	d = newDispatcher(&replyWriter{fw: frameWriter{w: io.Discard}}, &answeringHandler{})
	f := helloEnvelope(t, 1, 2, 3, 4)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := d.dispatch(f); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("dispatching a 4-request envelope allocates %.1f objects, want 0", allocs)
	}
}
