package protocol

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// subFramesEqual compares two frame slices field by field.
func subFramesEqual(a, b []*Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].ReqID != b[i].ReqID || a[i].Op != b[i].Op ||
			!bytes.Equal(a[i].Body, b[i].Body) {
			return false
		}
	}
	return true
}

// batchRoundTrip encodes subs into an envelope, ships it through
// WriteFrame/ReadFrame, and decodes it back.
func batchRoundTrip(t *testing.T, subs []*Frame) []*Frame {
	t.Helper()
	env, err := EncodeBatch(subs)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if env.Kind != FrameBatch || env.Op != OpBatch {
		t.Fatalf("envelope = kind %d op %s", env.Kind, env.Op)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, env); err != nil {
		t.Fatalf("write: %v", err)
	}
	if v := buf.Bytes()[2]; v != Version {
		t.Fatalf("envelope version byte = %d, want %d", v, Version)
	}
	read, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	out, err := DecodeBatch(read)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func TestBatchRoundTripEmpty(t *testing.T) {
	out := batchRoundTrip(t, nil)
	if len(out) != 0 {
		t.Fatalf("decoded %d sub-frames from empty batch", len(out))
	}
}

func TestBatchRoundTripSingle(t *testing.T) {
	subs := []*Frame{{Kind: FrameRequest, ReqID: 7, Op: OpEnqueueKernel, Body: []byte("launch")}}
	if out := batchRoundTrip(t, subs); !subFramesEqual(subs, out) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestBatchRoundTripMixed(t *testing.T) {
	// Requests and responses of different ops, empty and non-empty
	// bodies, in one envelope; order must be preserved exactly.
	subs := []*Frame{
		{Kind: FrameRequest, ReqID: 1, Op: OpWriteBuffer, Body: bytes.Repeat([]byte{0xAB}, 512)},
		{Kind: FrameRequest, ReqID: 2, Op: OpEnqueueKernel, Body: []byte{1}},
		{Kind: FrameResponse, ReqID: 1, Op: OpWriteBuffer},
		{Kind: FrameResponse, ReqID: 3, Op: OpError, Body: []byte("boom")},
		{Kind: FrameRequest, ReqID: 4, Op: OpFinishQueue, Body: []byte{9, 9}},
	}
	if out := batchRoundTrip(t, subs); !subFramesEqual(subs, out) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestBatchRoundTripMaxSize(t *testing.T) {
	// The largest envelope a coalescing writer produces: MaxBatchMessages
	// sub-frames, each at the batchable body limit.
	subs := make([]*Frame, MaxBatchMessages)
	for i := range subs {
		body := make([]byte, BatchableBodyLimit)
		for j := range body {
			body[j] = byte(i * j)
		}
		subs[i] = &Frame{Kind: FrameRequest, ReqID: uint64(i + 1), Op: OpWriteBuffer, Body: body}
	}
	if out := batchRoundTrip(t, subs); !subFramesEqual(subs, out) {
		t.Fatal("max-size round trip mismatch")
	}
}

func TestBatchRejectsNested(t *testing.T) {
	inner, err := EncodeBatch([]*Frame{{Kind: FrameRequest, ReqID: 1, Op: OpHello}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeBatch([]*Frame{inner}); !errors.Is(err, ErrNestedBatch) {
		t.Fatalf("encode nested: err = %v", err)
	}
	// A hand-built envelope containing a batch sub-frame must be rejected
	// on decode too.
	e := new(Encoder)
	e.U32(1)
	e.U8(uint8(FrameBatch))
	e.U64(1)
	e.U16(uint16(OpBatch))
	e.Blob(nil)
	f := &Frame{Kind: FrameBatch, Op: OpBatch, Body: e.buf}
	if _, err := DecodeBatch(f); !errors.Is(err, ErrNestedBatch) {
		t.Fatalf("decode nested: err = %v", err)
	}
}

func TestDecodeBatchRejectsGarbage(t *testing.T) {
	cases := map[string]*Frame{
		"not a batch":   {Kind: FrameRequest, Op: OpHello},
		"hostile count": {Kind: FrameBatch, Op: OpBatch, Body: []byte{0xFF, 0xFF, 0xFF, 0xFF}},
		"short body":    {Kind: FrameBatch, Op: OpBatch, Body: []byte{0, 0, 0, 2, 1}},
		"empty buffer":  {Kind: FrameBatch, Op: OpBatch},
	}
	for name, f := range cases {
		if _, err := DecodeBatch(f); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// Trailing garbage after the counted sub-frames is an error: the
	// envelope must parse exactly or the connection's framing is suspect.
	env, err := EncodeBatch([]*Frame{{Kind: FrameRequest, ReqID: 1, Op: OpHello}})
	if err != nil {
		t.Fatal(err)
	}
	env.Body = append(env.Body, 0xEE)
	if _, err := DecodeBatch(env); !errors.Is(err, ErrBadBatch) {
		t.Fatalf("trailing bytes: err = %v", err)
	}
}

func TestDecodeBatchTruncations(t *testing.T) {
	subs := []*Frame{
		{Kind: FrameRequest, ReqID: 5, Op: OpWriteBuffer, Body: []byte{1, 2, 3, 4, 5}},
		{Kind: FrameResponse, ReqID: 6, Op: OpReadBuffer, Body: []byte{6}},
	}
	env, err := EncodeBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(env.Body); cut++ {
		f := &Frame{Kind: FrameBatch, Op: OpBatch, Body: env.Body[:cut]}
		if _, err := DecodeBatch(f); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

// TestBatchPropertyRoundTrip round-trips randomized envelopes.
func TestBatchPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 200; round++ {
		subs := make([]*Frame, rng.Intn(MaxBatchMessages+1))
		for i := range subs {
			var body []byte
			if n := rng.Intn(256); n > 0 {
				body = make([]byte, n)
				rng.Read(body)
			}
			kind := FrameRequest
			if rng.Intn(2) == 0 {
				kind = FrameResponse
			}
			subs[i] = &Frame{Kind: kind, ReqID: rng.Uint64(), Op: Op(rng.Intn(64)), Body: body}
		}
		if out := batchRoundTrip(t, subs); !subFramesEqual(subs, out) {
			t.Fatalf("round %d mismatch", round)
		}
	}
}

// mixedRun builds a run of n messages the way writers queue them, mixing
// empty bodies, small messages and payloads from either side of
// ReferenceFloor up to the envelope limit.
func mixedRun(rng *rand.Rand, n int) []Outgoing {
	run := make([]Outgoing, n)
	for i := range run {
		id := uint64(i + 1)
		switch rng.Intn(4) {
		case 0:
			run[i] = NewOutgoing(FrameRequest, id, OpRelease, &ReleaseReq{Kind: ObjEvent, ID: rng.Uint64()})
		case 1:
			run[i] = NewOutgoing(FrameResponse, id, OpRelease, nil)
		case 2:
			run[i] = NewOutgoing(FrameRequest, id, OpWriteBuffer,
				&WriteBufferReq{QueueID: 1, BufferID: 2, Data: randBlob(rng), EventID: id, WaitEvents: []int64{3}})
		default:
			data := make([]byte, ReferenceFloor+rng.Intn(BatchableBodyLimit-ReferenceFloor-64))
			rng.Read(data)
			run[i] = NewOutgoing(FrameResponse, id, OpReadBuffer, &ReadBufferResp{Data: data, EventID: id})
		}
	}
	return run
}

// TestAppendBatchMatchesFrameOfEnvelope: staging a run of messages writes,
// byte for byte, what encoding each message on its own, allocating the
// envelope as a Frame and appending that would — after whatever the buffer
// already held — and the envelope decodes to sub-frames whose bodies are
// the messages' encodings.
func TestAppendBatchMatchesFrameOfEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 100; round++ {
		run := mixedRun(rng, rng.Intn(12))
		flat := make([]*Frame, len(run))
		for i, o := range run {
			flat[i] = &Frame{Kind: o.Kind, ReqID: o.ReqID, Op: o.Op, Body: EncodeMessage(o.Msg)}
		}

		prefix := []byte("already staged")
		got := AppendOutgoingBatch(append([]byte(nil), prefix...), run)
		env, err := EncodeBatch(flat)
		if err != nil {
			t.Fatal(err)
		}
		want, err := AppendFrame(append([]byte(nil), prefix...), env)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: AppendOutgoingBatch wrote %d bytes, AppendFrame(EncodeBatch) %d, or they differ", round, len(got), len(want))
		}
		if flatWire, err := AppendBatch(append([]byte(nil), prefix...), flat); err != nil || !bytes.Equal(got, flatWire) {
			t.Fatalf("round %d: AppendBatch of the encoded frames differs from the staged messages (%v)", round, err)
		}

		read, err := ReadFrame(bytes.NewReader(got[len(prefix):]))
		if err != nil {
			t.Fatal(err)
		}
		subs, err := DecodeBatch(read)
		if err != nil {
			t.Fatal(err)
		}
		if !subFramesEqual(flat, subs) {
			t.Fatalf("round %d: decoded sub-frames differ from the run", round)
		}
	}
}

// FuzzDecodeFrame feeds arbitrary bytes through the full frame pipeline —
// ReadFrame, and DecodeBatch when the frame claims to be an envelope — and
// requires clean errors, never panics or hangs. It runs its seed corpus
// under plain `go test`.
func FuzzDecodeFrame(f *testing.F) {
	// Seeds: valid plain frame, valid envelope, and classic corruptions.
	plain, err := AppendFrame(nil, &Frame{Kind: FrameRequest, ReqID: 3, Op: OpHello, Body: []byte("hi")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain)
	env, err := EncodeBatch([]*Frame{
		{Kind: FrameRequest, ReqID: 1, Op: OpWriteBuffer, Body: []byte{1, 2, 3}},
		{Kind: FrameResponse, ReqID: 2, Op: OpError, Body: []byte("x")},
	})
	if err != nil {
		f.Fatal(err)
	}
	envBytes, err := AppendFrame(nil, env)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(envBytes)
	f.Add(envBytes[:len(envBytes)-3]) // truncated body
	f.Add([]byte{})
	f.Add([]byte{0xDE, 0xAD})                           // bad magic
	f.Add(append([]byte{0x48, 0x41, 99}, plain[3:]...)) // bad version
	// Refusal seeds: the plain and envelope frames as the retired wire
	// versions 2 and 3 stamped them.
	f.Add(append([]byte{0x48, 0x41, 2}, plain[3:]...))
	f.Add(append([]byte{0x48, 0x41, 3}, envBytes[3:]...))
	// P2p data-plane frames: a PushRange command and a truncated variant.
	pushFrame, err := AppendFrame(nil, &Frame{Kind: FrameRequest, ReqID: 9, Op: OpPushRange,
		Body: EncodeMessage(&PushRangeReq{QueueID: 1, BufferID: 2, PeerName: "gpu-1",
			PeerBufferID: 3, Token: 4, Size: 64, WaitEvents: []int64{5}})})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pushFrame)
	f.Add(pushFrame[:len(pushFrame)-5])
	// Session-era frames: a rejoin hello with an epoch and a context
	// request carrying the appended tenant identity, plus a truncation
	// that lands inside the tenant string.
	sessHello, err := AppendFrame(nil, &Frame{Kind: FrameRequest, ReqID: 11, Op: OpHello,
		Body: EncodeMessage(&HelloReq{UserID: "u", WireVersion: Version, Epoch: 3,
			Peers: []PeerAddr{{Name: "gpu-0", Addr: "mem://gpu-0"}}})})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sessHello)
	sessCtx, err := AppendFrame(nil, &Frame{Kind: FrameRequest, ReqID: 12, Op: OpCreateContext,
		Body: EncodeMessage(&CreateContextReq{DeviceIDs: []int64{1, 2}, SessionID: 7, Tenant: "team-a"})})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sessCtx)
	f.Add(sessCtx[:len(sessCtx)-4])
	// Bulk frames, as writers encode them: a write and a peer deposit just
	// too big for an envelope, and a cut inside the payload.
	bulk := make([]byte, BatchableBodyLimit+1)
	outgoing := func(reqID uint64, m Message) []byte {
		o := NewOutgoing(FrameRequest, reqID, m.Op(), m)
		return AppendOutgoing(nil, &o)
	}
	bulkWrite := outgoing(13, &WriteBufferReq{QueueID: 1, BufferID: 2, Data: bulk, EventID: 3})
	f.Add(bulkWrite)
	f.Add(bulkWrite[:len(bulkWrite)/2])
	f.Add(outgoing(14, &PeerPushReq{Token: 4, Data: bulk}))
	// An envelope staged from a run of messages with payloads either side
	// of ReferenceFloor, and a cut inside a payload.
	staged := AppendOutgoingBatch(nil, mixedRun(rand.New(rand.NewSource(3)), 6))
	f.Add(staged)
	f.Add(staged[:len(staged)-ReferenceFloor/2])
	// A lying length prefix: a bulk write request claiming a 1 GiB body,
	// followed by a few bytes and the end of the stream.
	f.Add(append(lyingHeader(FrameRequest, OpWriteBuffer, MaxFrameSize), bulkWrite[headerSize:headerSize+64]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if len(data) >= headerSize && data[0] == 0x48 && data[1] == 0x41 && data[2] != Version &&
			!errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d frame: err = %v, want ErrBadVersion", data[2], err)
		}
		if err != nil {
			return
		}
		// The pooled reader must accept exactly the same streams and
		// deliver the same frame.
		pf, err := ReadFramePooled(bytes.NewReader(data))
		if err != nil || pf.Kind != fr.Kind || pf.ReqID != fr.ReqID || pf.Op != fr.Op || !bytes.Equal(pf.Body, fr.Body) {
			t.Fatalf("ReadFramePooled disagrees with ReadFrame: %v", err)
		}
		pf.Release()
		if fr.Kind != FrameBatch {
			// A payload-carrying body that decodes must re-encode to the
			// same wire bytes every way a writer encodes it.
			var m Message
			switch fr.Op {
			case OpWriteBuffer:
				m = &WriteBufferReq{}
			case OpReadBuffer:
				m = &ReadBufferResp{}
			case OpPeerPush:
				m = &PeerPushReq{}
			default:
				return
			}
			if DecodeMessage(m, fr.Body) == nil {
				refBody(t, m)
			}
			return
		}
		subs, err := DecodeBatch(fr)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode to the same frames:
		// the codec is self-consistent on its accepted inputs.
		env, err := EncodeBatch(subs)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		again, err := DecodeBatch(env)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !subFramesEqual(subs, again) {
			t.Fatal("re-round-trip mismatch")
		}
	})
}
