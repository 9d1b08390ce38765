package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/haocl-project/haocl/internal/recycle"
)

// roundTrip encodes m and decodes into out, failing the test on error.
func roundTrip(t *testing.T, m Message, out Message) {
	t.Helper()
	if err := DecodeMessage(out, refBody(t, m)); err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
}

// refBody encodes m the three ways a writer can — staged on its own
// (AppendOutgoing), staged in an envelope (AppendOutgoingBatch) and with
// its payload in place (AppendOutgoingHead) — checks that each puts exactly
// the bytes of a frame carrying EncodeMessage(m) on the wire, that the
// sizing walk agrees, and returns the body as it would arrive off the wire.
func refBody(t testing.TB, m Message) []byte {
	t.Helper()
	o := NewOutgoing(FrameRequest, 7, m.Op(), m)
	want, err := AppendFrame(nil, &Frame{Kind: FrameRequest, ReqID: 7, Op: m.Op(), Body: EncodeMessage(m)})
	if err != nil {
		t.Fatalf("append copied frame of %T: %v", m, err)
	}
	got := AppendOutgoing(nil, &o)
	if !bytes.Equal(got, want) {
		t.Fatalf("%T: staged wire bytes differ from EncodeMessage's (%d vs %d bytes)", m, len(got), len(want))
	}
	if o.Size != len(want)-headerSize || o.WireSize() != len(want) {
		t.Fatalf("%T: sized %d (wire %d), encoded %d (wire %d)", m, o.Size, o.WireSize(), len(want)-headerSize, len(want))
	}
	out, split, payload := AppendOutgoingHead(nil, &o)
	if vectored := append(append(out[:split:split], payload...), out[split:]...); !bytes.Equal(vectored, want) {
		t.Fatalf("%T: vectored wire bytes differ from EncodeMessage's", m)
	}
	env, err := EncodeBatch([]*Frame{{Kind: FrameRequest, ReqID: 7, Op: m.Op(), Body: want[headerSize:]}})
	if err != nil {
		t.Fatal(err)
	}
	if wantEnv, _ := AppendFrame(nil, env); !bytes.Equal(AppendOutgoingBatch(nil, []Outgoing{o}), wantEnv) {
		t.Fatalf("%T: enveloped wire bytes differ from EncodeMessage's", m)
	}
	return got[headerSize:]
}

// TestOutgoingReferencesBulkPayload pins the two thresholds and the
// aliasing of a bulk frame's vectored write: a blob of at least
// ReferenceFloor bytes is referenced, a smaller one encoded with the other
// fields; BatchableBodyLimit decides something else — whether the message
// may ride in an envelope — and changes nothing about the reference.
// Either way the wire bytes are EncodeMessage's.
func TestOutgoingReferencesBulkPayload(t *testing.T) {
	for _, size := range []int{0, 1, ReferenceFloor - 1, ReferenceFloor, ReferenceFloor + 1,
		BatchableBodyLimit - 1, BatchableBodyLimit, BatchableBodyLimit + 1, 3*BatchableBodyLimit + 5} {
		data := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(data)
		for _, m := range []Message{
			&WriteBufferReq{QueueID: 1, BufferID: 2, Offset: 3, Data: data, SimArrival: 4, EventID: 5, ModelBytes: 6, WaitEvents: []int64{7, 8}},
			&ReadBufferResp{Data: data, EventID: 9, Profile: Profile{Queued: 1, Submit: 2, Start: 3, End: 4}},
			&PeerPushReq{Token: 10, Data: data, SimArrival: 11},
		} {
			refBody(t, m)
			o := NewOutgoing(FrameResponse, 1, m.Op(), m)
			_, _, payload := AppendOutgoingHead(nil, &o)
			if want := size >= ReferenceFloor; want != (payload != nil) {
				t.Fatalf("%T with %d-byte blob: referenced = %v, want %v", m, size, payload != nil, want)
			}
			if payload != nil && &payload[0] != &data[0] {
				t.Fatalf("%T: the head holds a copy of the payload, not a reference", m)
			}
		}
	}
	// Only the first such blob is referenced; a second one is encoded inline.
	big := make([]byte, ReferenceFloor)
	refBody(t, &EnqueueKernelReq{Args: []KernelArg{{Kind: ArgScalar, Scalar: big}, {Kind: ArgScalar, Scalar: big}}})
	// A nil message is an empty body.
	o := NewOutgoing(FrameResponse, 1, OpRelease, nil)
	if wire := AppendOutgoing(nil, &o); o.Size != 0 || len(wire) != headerSize {
		t.Fatalf("nil message sized %d, encoded %d body bytes", o.Size, len(wire)-headerSize)
	}
}

// TestEncodingLeavesPooledPayload: encoding a message — staged, enveloped
// or with its payload in place — never frees what it borrowed; the
// connection writer calls its Free once the frame is staged or written
// (transport's TestWriterFreesBorrowedPayloads). ReadBufferResp's Free
// returns its snapshot.
func TestEncodingLeavesPooledPayload(t *testing.T) {
	for _, n := range []int{16, ReferenceFloor, BatchableBodyLimit + 1} {
		pooled := GetBuf(n)
		m := &ReadBufferResp{Data: pooled.B, Pooled: pooled}
		o := NewOutgoing(FrameResponse, 1, OpReadBuffer, m)
		AppendOutgoing(nil, &o)
		AppendOutgoingBatch(nil, []Outgoing{o, NewOutgoing(FrameResponse, 2, OpRelease, nil)})
		AppendOutgoingHead(nil, &o)
		EncodeMessage(m)
		if pooled.B == nil {
			t.Fatalf("%d B: an encoder freed the pooled payload", n)
		}
		m.Free()
		if pooled.B != nil {
			t.Fatalf("%d B: ReadBufferResp.Free kept the pooled payload", n)
		}
	}
	(&ReadBufferResp{}).Free() // an unpooled response frees nothing
}

func TestHelloRoundTrip(t *testing.T) {
	in := &HelloReq{UserID: "alice", ClientName: "app", WireVersion: 1}
	var out HelloReq
	roundTrip(t, in, &out)
	if !reflect.DeepEqual(in, &out) {
		t.Fatalf("%+v != %+v", out, in)
	}

	resp := &HelloResp{
		NodeName: "gpu-00",
		Devices: []DeviceInfo{{
			ID: 1, Type: DeviceGPU, Name: "Tesla P4", Vendor: "NVIDIA",
			ComputeUnits: 20, ClockMHz: 1063, GlobalMemBytes: 8 << 30,
			MaxWorkGroupSize: 1024, Shared: true,
			PeakGFLOPS: 5500, MemBWGBps: 192, TDPWatts: 75,
		}},
	}
	var outResp HelloResp
	roundTrip(t, resp, &outResp)
	if !reflect.DeepEqual(resp, &outResp) {
		t.Fatalf("%+v != %+v", outResp, resp)
	}
}

func TestEnqueueKernelRoundTrip(t *testing.T) {
	in := &EnqueueKernelReq{
		QueueID:  3,
		KernelID: 9,
		Global:   []int64{1024, 32, 1},
		Local:    []int64{64},
		Args: []KernelArg{
			{Kind: ArgBuffer, BufferID: 77},
			{Kind: ArgScalar, Scalar: []byte{1, 0, 0, 0}},
			{Kind: ArgLocal, LocalLen: 2048},
		},
		SimArrival: 123456,
		EventID:    42,
		WaitEvents: []int64{5, 6},
		CostFlops:  1e12,
		CostBytes:  1e11,
	}
	var out EnqueueKernelReq
	roundTrip(t, in, &out)
	if !reflect.DeepEqual(in, &out) {
		t.Fatalf("%+v != %+v", out, in)
	}
}

// messageTypes is the one table of message types the codec tests share:
// for each type, a constructor that draws a random instance of it, every
// field and list length included. TestAllMessagesRoundTripProperty
// round-trips them, TestGoldenCorpusCoverage requires a golden case for
// each, and FuzzDecodeMessage picks its decoder from it. A new message
// type is one entry here and one golden case.
var messageTypes = []func(rng *rand.Rand) Message{
	func(rng *rand.Rand) Message {
		return &HelloReq{UserID: randStr(rng), ClientName: randStr(rng), WireVersion: rng.Uint32(),
			Peers: randSlice(rng, randPeer), Epoch: rng.Uint64()}
	},
	func(rng *rand.Rand) Message {
		return &HelloResp{NodeName: randStr(rng), Devices: randSlice(rng, randDevice),
			WireVersion: rng.Uint32(), BootID: rng.Uint64()}
	},
	func(rng *rand.Rand) Message { return &GetDeviceInfosReq{TypeMask: uint8(rng.Uint32())} },
	func(rng *rand.Rand) Message { return &GetDeviceInfosResp{Devices: randSlice(rng, randDevice)} },
	func(rng *rand.Rand) Message {
		return &CreateContextReq{DeviceIDs: randInts(rng), SessionID: rng.Uint64(), Tenant: randStr(rng), ID: rng.Uint64()}
	},
	func(rng *rand.Rand) Message { return &ObjectResp{ID: rng.Uint64()} },
	func(rng *rand.Rand) Message {
		return &CreateQueueReq{ContextID: rng.Uint64(), DeviceID: rng.Uint32(), Profiling: rng.Intn(2) == 0, ID: rng.Uint64()}
	},
	func(rng *rand.Rand) Message {
		return &CreateBufferReq{ContextID: rng.Uint64(), Size: rng.Int63(), ID: rng.Uint64()}
	},
	func(rng *rand.Rand) Message {
		// Half the time a single release, else a vector of up to 300 IDs.
		var more []uint64
		if rng.Intn(2) == 0 {
			more = make([]uint64, 1+rng.Intn(300))
			for i := range more {
				more[i] = rng.Uint64()
			}
		}
		return &ReleaseReq{Kind: ObjectKind(rng.Intn(6) + 1), ID: rng.Uint64(), More: more}
	},
	func(*rand.Rand) Message { return &EmptyResp{} },
	func(rng *rand.Rand) Message {
		return &WriteBufferReq{QueueID: rng.Uint64(), BufferID: rng.Uint64(), Offset: rng.Int63(),
			Data: randBlob(rng), SimArrival: rng.Int63(), EventID: rng.Uint64(), ModelBytes: rng.Int63(),
			WaitEvents: randInts(rng)}
	},
	func(rng *rand.Rand) Message { return &EventResp{EventID: rng.Uint64(), Profile: randProfile(rng)} },
	func(rng *rand.Rand) Message {
		return &ReadBufferReq{QueueID: rng.Uint64(), BufferID: rng.Uint64(), Offset: rng.Int63(),
			Size: rng.Int63(), SimArrival: rng.Int63(), EventID: rng.Uint64(), ModelBytes: rng.Int63(),
			WaitEvents: randInts(rng)}
	},
	func(rng *rand.Rand) Message {
		return &ReadBufferResp{Data: randBlob(rng), EventID: rng.Uint64(), Profile: randProfile(rng)}
	},
	func(rng *rand.Rand) Message {
		return &CopyBufferReq{QueueID: rng.Uint64(), SrcID: rng.Uint64(), DstID: rng.Uint64(),
			SrcOffset: rng.Int63(), DstOffset: rng.Int63(), Size: rng.Int63(), EventID: rng.Uint64(),
			WaitEvents: randInts(rng)}
	},
	func(rng *rand.Rand) Message {
		return &PushRangeReq{QueueID: rng.Uint64(), BufferID: rng.Uint64(), PeerName: randStr(rng),
			PeerBufferID: rng.Uint64(), Token: rng.Uint64(), Offset: rng.Int63(), Size: rng.Int63(),
			SimArrival: rng.Int63(), DepartAt: rng.Int63(), EventID: rng.Uint64(), ModelBytes: rng.Int63(),
			WaitEvents: randInts(rng)}
	},
	func(rng *rand.Rand) Message {
		return &PeerPushReq{Token: rng.Uint64(), Data: randBlob(rng), SimArrival: rng.Int63()}
	},
	func(rng *rand.Rand) Message {
		return &AwaitPushReq{QueueID: rng.Uint64(), BufferID: rng.Uint64(), Token: rng.Uint64(),
			Offset: rng.Int63(), Size: rng.Int63(), SimArrival: rng.Int63(), EventID: rng.Uint64(),
			ModelBytes: rng.Int63(), WaitEvents: randInts(rng)}
	},
	func(rng *rand.Rand) Message { return &CancelPushReq{Token: rng.Uint64(), Reason: randStr(rng)} },
	func(rng *rand.Rand) Message {
		return &BuildProgramReq{ContextID: rng.Uint64(), Source: randStr(rng), Options: randStr(rng), ID: rng.Uint64()}
	},
	func(rng *rand.Rand) Message {
		return &BuildProgramResp{ProgramID: rng.Uint64(), Log: randStr(rng), Kernels: randSlice(rng, randStr)}
	},
	func(rng *rand.Rand) Message {
		return &CreateKernelReq{ProgramID: rng.Uint64(), Name: randStr(rng), ID: rng.Uint64()}
	},
	func(rng *rand.Rand) Message {
		return &EnqueueKernelReq{QueueID: rng.Uint64(), KernelID: rng.Uint64(), Global: randInts(rng),
			Local: randInts(rng), Args: randSlice(rng, randArg), SimArrival: rng.Int63(), EventID: rng.Uint64(),
			WaitEvents: randInts(rng), CostFlops: rng.Int63(), CostBytes: rng.Int63()}
	},
	func(rng *rand.Rand) Message { return &FinishQueueReq{QueueID: rng.Uint64()} },
	func(rng *rand.Rand) Message { return &FinishQueueResp{SimTime: rng.Int63()} },
	func(rng *rand.Rand) Message { return &QueryEventReq{EventID: rng.Uint64()} },
	func(rng *rand.Rand) Message {
		return &QueryEventResp{Complete: rng.Intn(2) == 0, Profile: randProfile(rng)}
	},
	func(*rand.Rand) Message { return &NodeStatusReq{} },
	func(rng *rand.Rand) Message { return &NodeStatusResp{Devices: randSlice(rng, randStatus)} },
	func(*rand.Rand) Message { return &ShutdownReq{} },
	func(rng *rand.Rand) Message { return &ErrorResp{Code: rng.Uint32(), Message: randStr(rng)} },
}

// messageKinds holds the type each messageTypes entry constructs.
var messageKinds = func() []reflect.Type {
	rng := rand.New(rand.NewSource(0))
	kinds := make([]reflect.Type, len(messageTypes))
	for i, mk := range messageTypes {
		kinds[i] = reflect.TypeOf(mk(rng)).Elem()
	}
	return kinds
}()

// newMessage returns a zero message of messageTypes[i]'s type.
func newMessage(i int) Message { return reflect.New(messageKinds[i]).Interface().(Message) }

// messageIndex returns the index in messageTypes of m's type.
func messageIndex(tb testing.TB, m Message) int {
	for i, kind := range messageKinds {
		if reflect.TypeOf(m).Elem() == kind {
			return i
		}
	}
	tb.Fatalf("%T is not in messageTypes", m)
	return -1
}

// TestAllMessagesRoundTripProperty round-trips every message type with
// randomized field values, and requires every strict prefix of each
// encoding to be a decode error: no field is optional on the wire, so a
// truncated body never decodes to defaults. The one prefix that decodes is
// a release vector's first ID, which is a single release.
func TestAllMessagesRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 25; round++ {
		for i, mk := range messageTypes {
			in, out := mk(rng), newMessage(i)
			body := refBody(t, in)
			if err := DecodeMessage(out, body); err != nil {
				t.Fatalf("case %d (%T): %v", i, in, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("case %d (%T): %+v != %+v", i, in, out, in)
			}
			for cut := 0; cut < len(body); cut++ {
				if rel, ok := in.(*ReleaseReq); ok && len(rel.More) > 0 && cut == 9 {
					continue
				}
				if err := DecodeMessage(out, body[:cut]); err == nil {
					t.Fatalf("case %d (%T): truncation at %d of %d decoded without error", i, in, cut, len(body))
				}
			}
		}
	}
}

// FuzzDecodeMessage shreds arbitrary bodies against every decoder in
// messageTypes, host and node side, mirroring what a hostile batched peer
// can ship. Its seeds are the golden corpus plus the bodies that sit on a
// decoder's edges.
func FuzzDecodeMessage(f *testing.F) {
	frames, err := readGolden(f)
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range goldenCases {
		f.Add(uint16(messageIndex(f, c.m)), frames[c.name][headerSize:])
	}
	// A release vector whose count lies about the body.
	release := uint16(messageIndex(f, &ReleaseReq{}))
	vector := EncodeMessage(&ReleaseReq{Kind: ObjEvent, ID: 1, More: []uint64{2, 3}})
	f.Add(release, append(vector[:9:9], 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8))
	// Payloads either side of the referencing threshold and of the envelope
	// limit.
	for _, size := range []int{ReferenceFloor - 1, ReferenceFloor, BatchableBodyLimit, BatchableBodyLimit + 1} {
		for _, m := range []Message{
			&WriteBufferReq{QueueID: 1, Data: make([]byte, size), WaitEvents: []int64{2}},
			&ReadBufferResp{Data: make([]byte, size), EventID: 3},
			&PeerPushReq{Token: 4, Data: make([]byte, size)},
		} {
			f.Add(uint16(messageIndex(f, m)), EncodeMessage(m))
		}
	}
	// Counts that claim a body's every byte as one list element.
	for _, l := range lyingLists {
		f.Add(uint16(messageIndex(f, l.m)), lyingBody(l.at, 64))
	}
	f.Fuzz(func(t *testing.T, which uint16, body []byte) {
		m := newMessage(int(which) % len(messageTypes))
		if DecodeMessage(m, body) != nil { // must not panic
			return
		}
		// Whatever decodes must encode to the same wire bytes every way
		// a writer encodes it.
		refBody(t, m)
	})
}

// randSlice returns up to 4 elements drawn by elem, and nil for none,
// which is how an empty list decodes.
func randSlice[T any](rng *rand.Rand, elem func(*rand.Rand) T) []T {
	n := rng.Intn(5)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = elem(rng)
	}
	return s
}

func randInts(rng *rand.Rand) []int64 {
	return randSlice(rng, func(rng *rand.Rand) int64 { return rng.Int63() - rng.Int63() })
}

func randPeer(rng *rand.Rand) PeerAddr { return PeerAddr{Name: randStr(rng), Addr: randStr(rng)} }

func randProfile(rng *rand.Rand) Profile {
	return Profile{Queued: rng.Int63(), Submit: rng.Int63(), Start: rng.Int63(), End: rng.Int63()}
}

// randArg draws a kernel argument of any of the three kinds.
func randArg(rng *rand.Rand) KernelArg {
	switch k := ArgKind(rng.Intn(3) + 1); k {
	case ArgBuffer:
		return KernelArg{Kind: k, BufferID: rng.Uint64()}
	case ArgScalar:
		return KernelArg{Kind: k, Scalar: randBlob(rng)}
	default:
		return KernelArg{Kind: k, LocalLen: rng.Int63()}
	}
}

func randStatus(rng *rand.Rand) DeviceStatus {
	return DeviceStatus{DeviceID: rng.Uint32(), BusyUntil: rng.Int63(), QueuedCmds: rng.Int63(),
		KernelsRun: rng.Int63(), FlopsDone: rng.Float64() * 1e12, BytesMoved: rng.Float64() * 1e9,
		EnergyJ: rng.Float64() * 1e3, ActiveUsers: rng.Int63(), EWMAGFLOPS: rng.Float64() * 1e4,
		EWMAKernelSec: rng.Float64()}
}

func randStr(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(20))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// randBlob returns a payload that is usually small and every fourth time
// sits at or just either side of ReferenceFloor, where a bulk frame's head
// switches from copying to referencing it, or of BatchableBodyLimit, where
// the frame stops fitting an envelope.
func randBlob(rng *rand.Rand) []byte {
	n := rng.Intn(64) + 1
	switch rng.Intn(8) {
	case 0:
		n = ReferenceFloor - 1 + rng.Intn(3)
	case 1:
		n = BatchableBodyLimit - 1 + rng.Intn(3)
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func randDevice(rng *rand.Rand) DeviceInfo {
	return DeviceInfo{
		ID:   rng.Uint32(),
		Type: DeviceType(rng.Intn(3) + 1),
		Name: randStr(rng), Vendor: randStr(rng),
		ComputeUnits: rng.Uint32(), ClockMHz: rng.Uint32(),
		GlobalMemBytes: rng.Int63(), MaxWorkGroupSize: rng.Int63(),
		Shared: rng.Intn(2) == 0, PeakGFLOPS: rng.Float64() * 1e4,
		MemBWGBps: rng.Float64() * 1e3, TDPWatts: rng.Float64() * 300,
	}
}

// TestDecodeTruncatedMessages feeds every prefix of a valid encoding to
// the decoder and requires a clean error, never a panic.
func TestDecodeTruncatedMessages(t *testing.T) {
	in := &EnqueueKernelReq{
		QueueID: 1, KernelID: 2,
		Global: []int64{10}, Local: []int64{2},
		Args:       []KernelArg{{Kind: ArgBuffer, BufferID: 3}, {Kind: ArgScalar, Scalar: []byte{1, 2, 3, 4}}},
		WaitEvents: []int64{7},
	}
	body := refBody(t, in)
	for cut := 0; cut < len(body); cut++ {
		var out EnqueueKernelReq
		if err := DecodeMessage(&out, body[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

// TestDecodeTruncatedPushMessages feeds every prefix of the p2p data-plane
// messages to the decoder and requires a clean error, never a panic — these
// decoders feed the node registration stage straight off the wire.
func TestDecodeTruncatedPushMessages(t *testing.T) {
	cases := []struct{ in, out Message }{
		{&PushRangeReq{QueueID: 1, BufferID: 2, PeerName: "gpu-1", PeerBufferID: 3, Token: 4,
			Offset: 5, Size: 6, SimArrival: 7, DepartAt: 8, EventID: 9, ModelBytes: 10,
			WaitEvents: []int64{11}}, &PushRangeReq{}},
		{&PeerPushReq{Token: 1, Data: []byte{1, 2, 3}, SimArrival: 4}, &PeerPushReq{}},
		{&PeerPushReq{Token: 1, Data: make([]byte, BatchableBodyLimit+1), SimArrival: 4}, &PeerPushReq{}},
		{&WriteBufferReq{QueueID: 1, BufferID: 2, Data: make([]byte, BatchableBodyLimit+1), EventID: 3,
			WaitEvents: []int64{4}}, &WriteBufferReq{}},
		{&ReadBufferResp{Data: make([]byte, BatchableBodyLimit+1), EventID: 5}, &ReadBufferResp{}},
		{&AwaitPushReq{QueueID: 1, BufferID: 2, Token: 3, Offset: 4, Size: 5, SimArrival: 6,
			EventID: 7, ModelBytes: 8, WaitEvents: []int64{9}}, &AwaitPushReq{}},
		{&CancelPushReq{Token: 1, Reason: "source died"}, &CancelPushReq{}},
	}
	for _, c := range cases {
		body := refBody(t, c.in)
		for cut := 0; cut < len(body); cut++ {
			if err := DecodeMessage(c.out, body[:cut]); err == nil {
				t.Fatalf("%T: truncation at %d decoded without error", c.in, cut)
			}
		}
	}
}

// TestReleaseVector pins the wire form of the vectored Release: a vector
// of length one is byte for byte the pre-vector message, a longer one
// appends a counted ID list that a pre-vector decoder never looks at, every
// cut of the list is an error, and a count the body cannot hold is refused
// before anything is allocated for it.
func TestReleaseVector(t *testing.T) {
	single := refBody(t, &ReleaseReq{Kind: ObjEvent, ID: 7})
	if len(single) != 9 {
		t.Fatalf("a single release encodes to %d bytes, want the 9 of wire v3", len(single))
	}
	in := &ReleaseReq{Kind: ObjEvent, ID: 7, More: []uint64{8, 9, 1 << 40}}
	body := refBody(t, in)
	if !bytes.Equal(body[:9], single) {
		t.Fatal("a vector does not start with its first ID's single release")
	}
	var out ReleaseReq
	if err := DecodeMessage(&out, body); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Fatalf("vector of %d decoded as %d", in.Len(), out.Len())
	}
	for i, want := range []uint64{7, 8, 9, 1 << 40} {
		if got := out.At(i); got != want {
			t.Fatalf("ID %d of the vector = %d, want %d", i, got, want)
		}
	}
	for cut := 0; cut < len(body); cut++ {
		err := DecodeMessage(&ReleaseReq{}, body[:cut])
		if cut == len(single) {
			if err != nil {
				t.Fatalf("the vector's first 9 bytes are a single release: %v", err)
			}
		} else if err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	hostile := func(count uint32, tail int) []byte {
		e := new(Encoder)
		e.U8(uint8(ObjEvent))
		e.U64(7)
		e.U32(count)
		return append(e.buf, make([]byte, tail)...)
	}
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"count beyond the body", hostile(1<<32-1, 64)},
		{"count one beyond the body", hostile(9, 64)},
		{"count of zero", hostile(0, 0)},
	} {
		if err := DecodeMessage(&ReleaseReq{}, c.body); !errors.Is(err, ErrShortMessage) {
			t.Fatalf("%s: err = %v, want ErrShortMessage", c.name, err)
		}
	}
}

// TestHelloEpochBootIDRoundTrip: the fault-tolerance fields of the Hello
// pair survive a round trip.
func TestHelloEpochBootIDRoundTrip(t *testing.T) {
	in := &HelloReq{UserID: "u", ClientName: "c", WireVersion: Version, Epoch: 7,
		Peers: []PeerAddr{{Name: "gpu-1", Addr: "mem://gpu-1"}}}
	var out HelloReq
	roundTrip(t, in, &out)
	if !reflect.DeepEqual(in, &out) {
		t.Fatalf("%+v != %+v", out, in)
	}

	resp := &HelloResp{NodeName: "gpu-1", WireVersion: Version, BootID: 42}
	var outResp HelloResp
	roundTrip(t, resp, &outResp)
	if outResp.NodeName != resp.NodeName || outResp.WireVersion != resp.WireVersion ||
		outResp.BootID != resp.BootID {
		t.Fatalf("%+v != %+v", outResp, resp)
	}
}

// lyingLists are the counted lists a decoder allocates for, each with the
// offset of its count in a body whose earlier fields are all zero.
var lyingLists = []struct {
	name string
	m    Message
	at   int
}{
	{"EnqueueKernelReq.Args", &EnqueueKernelReq{}, 8 + 8 + 4 + 4},
	{"HelloResp.Devices", &HelloResp{}, 4},
	{"GetDeviceInfosResp.Devices", &GetDeviceInfosResp{}, 0},
	{"NodeStatusResp.Devices", &NodeStatusResp{}, 0},
	{"HelloReq.Peers", &HelloReq{}, 4 + 4 + 4},
	{"BuildProgramResp.Kernels", &BuildProgramResp{}, 8 + 4},
}

// lyingBody returns a zero body of size bytes whose count at offset at
// claims every byte after it as one element: it passes a check of one byte
// per element, and no element's encoding is that small.
func lyingBody(at, size int) []byte {
	body := make([]byte, size)
	binary.BigEndian.PutUint32(body[at:], uint32(size-at-4))
	return body
}

// TestLyingCountAllocationBudget: a list count the body cannot hold is
// refused before anything is allocated for it, so a lying count costs no
// more memory than its frame — not one element's size times what one byte
// per element would admit (16–96× the body).
func TestLyingCountAllocationBudget(t *testing.T) {
	for _, l := range lyingLists {
		body, m := lyingBody(l.at, 1<<20), newMessage(messageIndex(t, l.m))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := DecodeMessage(m, body)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrShortMessage) {
			t.Errorf("%s: err = %v, want ErrShortMessage", l.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("%s: a count lying about a 1 MiB body allocated %d KiB, want under 64 KiB", l.name, got>>10)
		}
	}
}

// TestDecodeIntoPresetCapacity: Ints and list decode into the capacity a
// destination already has when it holds the count — the node presets its
// commands' wait IDs and NDRange — and into a fresh slice when it does not,
// writing nothing past the preset. An empty list still decodes to nil.
func TestDecodeIntoPresetCapacity(t *testing.T) {
	in := &EnqueueKernelReq{
		QueueID: 1, KernelID: 2, EventID: 3,
		Global: []int64{8, 4},
		Local:  []int64{2, 2, 1, 9},
		Args:   []KernelArg{{Kind: ArgBuffer, BufferID: 7}, {Kind: ArgScalar, Scalar: []byte{1, 2, 3, 4}}},
	}
	body := EncodeMessage(in)

	var dims [8]int64
	for i := range dims {
		dims[i] = -1
	}
	args := [3]KernelArg{{Kind: ArgLocal, LocalLen: 99}, {Scalar: []byte{9}}, {Kind: ArgLocal, LocalLen: 5}}
	out := EnqueueKernelReq{Global: dims[0:0:3], Local: dims[3:3:6], Args: args[:0:2], WaitEvents: dims[6:6:8]}
	if err := DecodeMessage(&out, body); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&out, in) {
		t.Fatalf("decoded %+v, want %+v", out, *in)
	}
	if &out.Global[0] != &dims[0] || &out.Args[0] != &args[0] {
		t.Fatal("a list that fits its destination's capacity was decoded into fresh storage")
	}
	if &out.Local[0] == &dims[3] {
		t.Fatal("4 values were decoded into a capacity of 3")
	}
	if out.WaitEvents != nil {
		t.Fatalf("an empty list decoded to %#v, want nil", out.WaitEvents)
	}
	for i, want := range []int64{8, 4, -1, -1, -1, -1, -1, -1} {
		if dims[i] != want {
			t.Fatalf("dims[%d] = %d after decoding, want %d: the decoder wrote past a preset", i, dims[i], want)
		}
	}
	if args[2].Kind != ArgLocal || args[2].LocalLen != 5 {
		t.Fatalf("args[2] = %+v after decoding: the decoder wrote past a preset", args[2])
	}

	// Decoding into storage that holds everything allocates nothing.
	if recycle.Race {
		return // sync.Pool drops some of what it is given: the codec may be new
	}
	var wide [16]int64
	var wideArgs [2]KernelArg
	if got := testing.AllocsPerRun(50, func() {
		out = EnqueueKernelReq{Global: wide[0:0:3], Local: wide[3:3:8], Args: wideArgs[:0], WaitEvents: wide[8:8]}
		if err := DecodeMessage(&out, body); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("decoding into preset storage allocates %v objects, want 0", got)
	}
}

func TestRemoteError(t *testing.T) {
	err := &RemoteError{Op: OpBuildProgram, Code: CodeBuildFailed, Message: "no kernel"}
	if !errors.Is(err, ErrRemote) {
		t.Fatal("RemoteError must match ErrRemote")
	}
	if err.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestOpAndKindStrings(t *testing.T) {
	for op := OpHello; op <= OpCancelPush; op++ {
		if s := op.String(); s == "" || s[0] == 'O' && s[1] == 'p' && s[2] == '(' {
			t.Fatalf("op %d has no name: %q", op, s)
		}
	}
	if Op(999).String() != "Op(999)" {
		t.Fatal("unknown op formatting broken")
	}
	for k := ObjContext; k <= ObjEvent; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	for _, dt := range []DeviceType{DeviceCPU, DeviceGPU, DeviceFPGA} {
		if dt.String() == "" {
			t.Fatal("device type name missing")
		}
	}
}

func TestProfileDuration(t *testing.T) {
	p := Profile{Start: 100, End: 350}
	if p.DurationNS() != 250 {
		t.Fatalf("DurationNS = %d", p.DurationNS())
	}
}

// TestDeviceInfoQuick round-trips DeviceInfo through HelloResp with
// testing/quick generating the struct.
func TestDeviceInfoQuick(t *testing.T) {
	check := func(id uint32, name string, peak float64, shared bool) bool {
		in := &HelloResp{NodeName: "n", Devices: []DeviceInfo{{
			ID: id, Type: DeviceFPGA, Name: name, PeakGFLOPS: peak, Shared: shared,
		}}}
		var out HelloResp
		if err := DecodeMessage(&out, EncodeMessage(in)); err != nil {
			return false
		}
		return reflect.DeepEqual(in, &out)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
