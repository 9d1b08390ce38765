package transport

import (
	"bytes"
	"fmt"
	"net"
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
