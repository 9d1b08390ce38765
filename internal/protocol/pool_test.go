package protocol

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestSizeClassProperty: every poolable length maps to a class that holds
// it, wastes at most a quarter, and grows monotonically with the length.
func TestSizeClassProperty(t *testing.T) {
	prevClass, prevSize := 0, 0
	for _, n := range []int{1, 100, 640, 641, ReferenceFloor - 1, ReferenceFloor, 1024, 1025, 4 << 10, 4<<10 + 44,
		BatchableBodyLimit, BatchableBodyLimit + 1, 20480, 20481, 32768, 32769,
		1 << 20, 1<<20 + 1, 1<<20 + 60, 5 << 18, 5<<18 + 1, 16 << 20, 16<<20 + 44, maxUpfrontBody - 1, maxUpfrontBody} {
		class, size := sizeClass(n)
		if class < 0 || class >= numClasses {
			t.Fatalf("sizeClass(%d) = class %d, outside [0,%d)", n, class, numClasses)
		}
		if size < n {
			t.Fatalf("sizeClass(%d) = %d bytes, too small", n, size)
		}
		if n >= ReferenceFloor && size > n+n/4 {
			t.Fatalf("sizeClass(%d) = %d bytes, wastes more than a quarter", n, size)
		}
		if class < prevClass || size < prevSize {
			t.Fatalf("sizeClass not monotonic at %d: class %d size %d after class %d size %d", n, class, size, prevClass, prevSize)
		}
		if c2, s2 := sizeClass(size); c2 != class || s2 != size {
			t.Fatalf("class size %d of length %d maps to class %d size %d, want itself (class %d)", size, n, c2, s2, class)
		}
		prevClass, prevSize = class, size
	}
}

func TestGetBufLengthAndFree(t *testing.T) {
	for _, n := range []int{1, ReferenceFloor, BatchableBodyLimit + 1, 1<<20 + 60} {
		b := GetBuf(n)
		if len(b.B) != n || cap(b.B) != n {
			t.Fatalf("GetBuf(%d): len %d cap %d", n, len(b.B), cap(b.B))
		}
		b.Free()
		if b.B != nil {
			t.Fatal("Free left the buffer reachable through its handle")
		}
	}
	var none *Buf
	none.Free() // a nil handle is a no-op: unpooled snapshots carry one
	if class, _ := sizeClass(maxUpfrontBody); class != numClasses-1 {
		t.Fatalf("maxUpfrontBody is class %d, want the largest, %d", class, numClasses-1)
	}
	if b := GetBuf(maxUpfrontBody + 1); b.class != -1 || len(b.B) != maxUpfrontBody+1 {
		t.Fatalf("GetBuf above the largest class: class %d, len %d", b.class, len(b.B))
	}
}

// TestReadFramePooledPolicy: request envelopes and bulk request frames draw
// their body from the pool; small frames, responses, and PeerPush deposits
// (which the receiver parks past its response), alone or in an envelope,
// get a body of their own.
func TestReadFramePooledPolicy(t *testing.T) {
	bulk := make([]byte, BatchableBodyLimit+1)
	for i := range bulk {
		bulk[i] = byte(i)
	}
	envelope := func(ops ...Op) *Frame {
		subs := make([]*Frame, len(ops))
		for i, op := range ops {
			subs[i] = &Frame{Kind: FrameRequest, ReqID: uint64(i + 1), Op: op, Body: bulk[:64]}
		}
		env, err := EncodeBatch(subs)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	cases := []struct {
		name   string
		f      *Frame
		pooled bool
	}{
		{"bulk request", &Frame{Kind: FrameRequest, ReqID: 1, Op: OpWriteBuffer, Body: bulk}, true},
		{"body at the limit", &Frame{Kind: FrameRequest, ReqID: 1, Op: OpWriteBuffer, Body: bulk[:BatchableBodyLimit]}, false},
		{"bulk response", &Frame{Kind: FrameResponse, ReqID: 1, Op: OpReadBuffer, Body: bulk}, false},
		{"peer deposit", &Frame{Kind: FrameRequest, ReqID: 1, Op: OpPeerPush, Body: bulk}, false},
		{"envelope", envelope(OpWriteBuffer, OpEnqueueKernel, OpRelease), true},
		{"envelope carrying a peer deposit", envelope(OpWriteBuffer, OpPeerPush), false},
	}
	for _, c := range cases {
		wire, err := AppendFrame(nil, c.f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadFramePooled(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if (got.pooled != nil) != c.pooled {
			t.Fatalf("%s: pooled = %v, want %v", c.name, got.pooled != nil, c.pooled)
		}
		if !bytes.Equal(got.Body, c.f.Body) {
			t.Fatalf("%s: body differs", c.name)
		}
		got.Release()
		if c.pooled && got.Body != nil {
			t.Fatalf("%s: Release left the pooled body reachable", c.name)
		}
		if plain, err := ReadFrame(bytes.NewReader(wire)); err != nil || plain.pooled != nil {
			t.Fatalf("%s: ReadFrame pooled a body (err %v)", c.name, err)
		}
	}
	// A truncated bulk body is an error, not a pooled frame.
	wire, _ := AppendFrame(nil, cases[0].f)
	if _, err := ReadFramePooled(bytes.NewReader(wire[:len(wire)-1])); err == nil {
		t.Fatal("truncated bulk frame read without error")
	}
}

// TestFreePoisonsUnderRace: under the race detector, a view kept past its
// pooled buffer's Free — here a write's payload decoded from a request
// envelope, kept after the envelope was released — reads poison instead
// of the bytes it was decoded from; without the detector Free writes
// nothing.
func TestFreePoisonsUnderRace(t *testing.T) {
	data := bytes.Repeat([]byte{7}, 64)
	env, err := EncodeBatch([]*Frame{{Kind: FrameRequest, ReqID: 1, Op: OpWriteBuffer,
		Body: EncodeMessage(&WriteBufferReq{QueueID: 1, Data: data})}})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := AppendFrame(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ReadFramePooled(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	subs, err := UnpackBatch(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	var req WriteBufferReq
	if err := DecodeMessage(&req, subs[0].Body); err != nil || !bytes.Equal(req.Data, data) {
		t.Fatalf("decoded %v (%v), want the payload", req.Data, err)
	}
	f.Release()
	want := byte(7)
	if raceEnabled {
		want = poison
	}
	for i, b := range req.Data {
		if b != want {
			t.Fatalf("byte %d of a view kept past Free reads %#x, want %#x (race detector: %v)", i, b, want, raceEnabled)
		}
	}
}

// TestFrameAllocationBudget gates what the codec charges a small command.
// A writer sizes a message and encodes it into its warmed staging buffer,
// alone or in an envelope, without allocating (so the per-message Frame
// is gone from the send side); a received Frame stays at 48 bytes, so that
// the smallest class holds it and a 16 byte body; decoding a message into a
// caller's struct allocates only what the message's own slices need; and an
// envelope's sub-frames are unpacked into a reused slice for free, or into
// two slabs however many there are.
func TestFrameAllocationBudget(t *testing.T) {
	if s := unsafe.Sizeof(Frame{}); s > 48 {
		t.Fatalf("Frame is %d bytes, want at most 48", s)
	}
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	write := &WriteBufferReq{QueueID: 3, BufferID: 7, Data: make([]byte, 256), EventID: 42, ModelBytes: 256}
	done := &EventResp{EventID: 42, Profile: Profile{Queued: 1, Submit: 2, Start: 3, End: 4}}
	vector := &ReleaseReq{Kind: ObjEvent, ID: 1, More: make([]uint64, 100)}
	staging := make([]byte, 0, 4<<10)
	var run []Outgoing
	for _, c := range []struct {
		name string
		m    Message
	}{
		{"256 B write", write},
		{"event response", done},
		{"release of 101 events", vector},
		{"empty response", &EmptyResp{}},
	} {
		o := NewOutgoing(FrameRequest, 1, OpWriteBuffer, c.m)
		run = append(run, o)
		if got := testing.AllocsPerRun(200, func() {
			o = NewOutgoing(FrameRequest, 1, OpWriteBuffer, c.m)
			staging = AppendOutgoing(staging[:0], &o)
		}); got != 0 {
			t.Errorf("sizing and staging a %s allocates %v objects, want 0", c.name, got)
		}
	}
	if got := testing.AllocsPerRun(200, func() { staging = AppendOutgoingBatch(staging[:0], run) }); got != 0 {
		t.Errorf("staging an envelope of %d messages allocates %v objects, want 0", len(run), got)
	}
	body := EncodeMessage(done)
	var into EventResp
	if got := testing.AllocsPerRun(200, func() {
		if err := DecodeMessage(&into, body); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("DecodeMessage of an event response allocates %v objects, want 0", got)
	}
	subs := make([]*Frame, MaxBatchMessages)
	for i := range subs {
		subs[i] = &Frame{Kind: FrameResponse, ReqID: uint64(i), Op: OpWriteBuffer, Body: body}
	}
	env, err := EncodeBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := DecodeBatch(env); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("DecodeBatch of %d sub-frames allocates %v objects, want 2", len(subs), got)
	}
	unpacked := make([]Frame, 0, MaxBatchMessages)
	if got := testing.AllocsPerRun(200, func() {
		if unpacked, err = UnpackBatch(unpacked[:0], env); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("UnpackBatch of %d sub-frames into a reused slice allocates %v objects, want 0", len(subs), got)
	}
	wire, err := AppendFrame(nil, subs[0])
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(wire)
	if got := testing.AllocsPerRun(200, func() {
		r.Reset(wire)
		if _, err := ReadFrame(r); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("ReadFrame of a small frame allocates %v objects, want 1: the frame with its body", got)
	}
}
