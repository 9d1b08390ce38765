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
	"github.com/haocl-project/haocl/internal/recycle"
)

// startWriter runs a connection writer over out until the test ends.
func startWriter(t *testing.T, out io.Writer) *connWriter {
	t.Helper()
	w := new(connWriter)
	w.init(out)
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		w.run(nil)
	}()
	t.Cleanup(func() {
		w.mu.Lock()
		w.kill()
		w.mu.Unlock()
		<-stopped
	})
	return w
}

// drain waits until w has written everything it was given.
func drain(w *connWriter) {
	for {
		w.mu.Lock()
		idle := len(w.queue) == 0 && !w.busy
		w.mu.Unlock()
		if idle {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// pooledEnvelope is helloEnvelope(ids) read back the way a server reads
// it, into a body from the payload pool.
func pooledEnvelope(t *testing.T, ids ...uint64) *protocol.Frame {
	t.Helper()
	wire, err := protocol.AppendFrame(nil, helloEnvelope(t, ids...))
	if err != nil {
		t.Fatal(err)
	}
	f, err := protocol.ReadFramePooled(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEnvelopeRecordReuse drives one connection's writer through
// envelopes of different lengths, each with a failure answered before its
// mates, which complete in reverse. Each reply is queued as it completes,
// so the wire carries them in completion order. The envelope's pooled body
// stays while any reply is unwritten and is released once the last one has
// been written; the record goes back cleared, holding no frame, no slots
// and no writer.
func TestEnvelopeRecordReuse(t *testing.T) {
	var wire bytes.Buffer
	w := startWriter(t, &wire)
	nextID := uint64(1)
	for round, n := range []int{3, 1, 6, 2} {
		subs := make([]protocol.Frame, n)
		ids := make([]uint64, n)
		for i := range subs {
			ids[i] = nextID
			subs[i] = protocol.Frame{Kind: protocol.FrameRequest, ReqID: nextID, Op: protocol.OpHello}
			nextID++
		}
		f := pooledEnvelope(t, ids...)
		env := w.envelope(f, subs)
		if env.frame != f || env.remaining != n || len(env.slots) != n || len(env.dones) < n {
			t.Fatalf("round %d: record holds frame %p, %d remaining, %d slots, %d dones; want %p, %d, %d, %d",
				round, env.frame, env.remaining, len(env.slots), len(env.dones), f, n, n, n)
		}
		for i, s := range env.slots {
			if s != (slot{subs[i].ReqID, protocol.OpHello}) {
				t.Fatalf("round %d: slot %d reads %+v", round, i, s)
			}
		}
		// The last request fails first; the others complete in reverse.
		env.dones[n-1](nil, fmt.Errorf("round %d fails", round))
		for i := n - 2; i >= 0; i-- {
			drain(w)
			if f.Body == nil {
				t.Fatalf("round %d: the envelope body was released with %d requests unanswered", round, i+1)
			}
			env.dones[i](&protocol.HelloResp{NodeName: fmt.Sprint(subs[i].ReqID)}, nil)
		}
		if env.frame != nil || len(env.slots) != 0 || env.w != nil {
			t.Fatalf("round %d: the recycled record keeps frame %p, %d slots, writer %p", round, env.frame, len(env.slots), env.w)
		}
		drain(w)
		if f.Body != nil {
			t.Fatalf("round %d: the envelope body outlived its last reply's write", round)
		}
	}

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
	want := "[3:error 2 1 4:error 10:error 9 8 7 6 5 12:error 11]"
	if fmt.Sprint(got) != want {
		t.Fatalf("responses in wire order %v, want %s", got, want)
	}
}

// TestBackToBackEnvelopesMixingFailures streams envelopes of different
// lengths over a real connection without waiting: each mixes a failure
// with held requests a later envelope's member completes from another
// goroutine, so records are recycled on one goroutine while the dispatch
// loop takes them on another. Every request must be answered
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
// envelopes of different lengths complete out of order from two
// goroutines: each response must reach its own request ID, once.
// Dispatching an envelope whose record has its slots allocates nothing
// (checked without the race detector).
func TestEnvelopeSlotDoneBoundOnce(t *testing.T) {
	var wire bytes.Buffer
	h := &slotHandler{}
	w := startWriter(t, &wire)
	d := newDispatcher(w, h)
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
	}
	drain(w)

	answered := make(map[uint64]bool)
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

	if recycle.Race {
		return // sync.Pool drops a quarter of what it is given: the writer's codec misses
	}
	d = newDispatcher(startWriter(t, io.Discard), &answeringHandler{})
	f := helloEnvelope(t, 1, 2, 3, 4)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := d.dispatch(f); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("dispatching a 4-request envelope allocates %.1f objects, want 0", allocs)
	}
}
