package protocol

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenPath is the frozen corpus: one line per golden case, its name and
// the hex of the frame a writer encodes for it.
var goldenPath = filepath.Join("testdata", "messages.golden")

// goldenCases are the messages whose frames the corpus freezes: every
// message type, with the variants whose layout differs — a single release
// and a vector, payloads copied inline and referenced (at least
// ReferenceFloor bytes), a Hello with and without peers, a launch with all
// three argument kinds, and the empty bodies. Lists are never empty here,
// so that a struct decodes back to itself under any nil-or-empty rule.
var goldenCases = []struct {
	name string
	m    Message
}{
	{"HelloReq", &HelloReq{UserID: "alice", ClientName: "app", WireVersion: Version, Epoch: 1}},
	{"HelloReq/peers", &HelloReq{UserID: "u", ClientName: "c", WireVersion: Version, Epoch: 7,
		Peers: []PeerAddr{{Name: "gpu-00", Addr: "10.0.0.1:7110"}, {Name: "fpga-01", Addr: "mem://fpga-01"}}}},
	{"HelloResp", &HelloResp{NodeName: "gpu-00", Devices: []DeviceInfo{goldenDevice}, WireVersion: Version, BootID: 0x0123456789abcdef}},
	{"GetDeviceInfosReq", &GetDeviceInfosReq{TypeMask: 1<<DeviceGPU | 1<<DeviceFPGA}},
	{"GetDeviceInfosResp", &GetDeviceInfosResp{Devices: []DeviceInfo{goldenDevice,
		{ID: 2, Type: DeviceFPGA, Name: "Arria 10", Vendor: "Intel", ComputeUnits: 1, ClockMHz: 240,
			GlobalMemBytes: 2 << 30, MaxWorkGroupSize: 256, PeakGFLOPS: 1366, MemBWGBps: 34, TDPWatts: 60}}}},
	{"CreateContextReq", &CreateContextReq{DeviceIDs: []int64{1, 2, -3}, SessionID: 11, Tenant: "team-a", ID: 3}},
	{"ObjectResp", &ObjectResp{ID: 1 << 40}},
	{"CreateQueueReq", &CreateQueueReq{ContextID: 3, DeviceID: 2, Profiling: true, ID: 4}},
	{"CreateBufferReq", &CreateBufferReq{ContextID: 3, Size: 1 << 20, ID: 5}},
	{"ReleaseReq", &ReleaseReq{Kind: ObjBuffer, ID: 9}},
	{"ReleaseReq/vector", &ReleaseReq{Kind: ObjEvent, ID: 7, More: []uint64{8, 9, 1 << 40}}},
	{"EmptyResp", &EmptyResp{}},
	{"WriteBufferReq", &WriteBufferReq{QueueID: 4, BufferID: 5, Offset: 64, Data: goldenPayload(256),
		SimArrival: 123456, EventID: 42, ModelBytes: 1 << 30, WaitEvents: []int64{40, 41}}},
	{"WriteBufferReq/referenced", &WriteBufferReq{QueueID: 4, BufferID: 5, Data: goldenPayload(ReferenceFloor + 48),
		SimArrival: 7, EventID: 43, WaitEvents: []int64{42}}},
	{"EventResp", &EventResp{EventID: 42, Profile: goldenProfile}},
	{"ReadBufferReq", &ReadBufferReq{QueueID: 4, BufferID: 5, Offset: 8, Size: 256, SimArrival: 99,
		EventID: 44, ModelBytes: 512, WaitEvents: []int64{43}}},
	{"ReadBufferResp", &ReadBufferResp{Data: goldenPayload(48), EventID: 44, Profile: goldenProfile}},
	{"ReadBufferResp/referenced", &ReadBufferResp{Data: goldenPayload(ReferenceFloor), EventID: 45, Profile: goldenProfile}},
	{"CopyBufferReq", &CopyBufferReq{QueueID: 4, SrcID: 5, DstID: 6, SrcOffset: 16, DstOffset: 32, Size: 128,
		EventID: 46, WaitEvents: []int64{44, 45}}},
	{"PushRangeReq", &PushRangeReq{QueueID: 4, BufferID: 5, PeerName: "gpu-01", PeerBufferID: 15, Token: 77,
		Offset: 1024, Size: 4096, SimArrival: 500, DepartAt: 600, EventID: 47, ModelBytes: 8192, WaitEvents: []int64{46}}},
	{"PeerPushReq", &PeerPushReq{Token: 77, Data: goldenPayload(64), SimArrival: 900}},
	{"AwaitPushReq", &AwaitPushReq{QueueID: 8, BufferID: 15, Token: 77, Offset: 1024, Size: 4096,
		SimArrival: 510, EventID: 48, ModelBytes: 8192, WaitEvents: []int64{12}}},
	{"CancelPushReq", &CancelPushReq{Token: 77, Reason: "source died"}},
	{"BuildProgramReq", &BuildProgramReq{ContextID: 3, Source: "__kernel void k(__global float *x) {}", Options: "-cl-fast-relaxed-math", ID: 12}},
	{"BuildProgramResp", &BuildProgramResp{ProgramID: 12, Log: "ok", Kernels: []string{"saxpy", "matmul"}}},
	{"CreateKernelReq", &CreateKernelReq{ProgramID: 12, Name: "saxpy", ID: 13}},
	{"EnqueueKernelReq", &EnqueueKernelReq{QueueID: 4, KernelID: 13, Global: []int64{1024, 32, 1}, Local: []int64{64},
		Args: []KernelArg{
			{Kind: ArgBuffer, BufferID: 5},
			{Kind: ArgScalar, Scalar: []byte{0, 0, 0x80, 0x3f}},
			{Kind: ArgLocal, LocalLen: 2048},
		},
		SimArrival: 123456, EventID: 49, WaitEvents: []int64{47, 48}, CostFlops: 1e12, CostBytes: 1e11}},
	{"FinishQueueReq", &FinishQueueReq{QueueID: 4}},
	{"FinishQueueResp", &FinishQueueResp{SimTime: 29869483}},
	{"QueryEventReq", &QueryEventReq{EventID: 49}},
	{"QueryEventResp", &QueryEventResp{Complete: true, Profile: goldenProfile}},
	{"NodeStatusReq", &NodeStatusReq{}},
	{"NodeStatusResp", &NodeStatusResp{Devices: []DeviceStatus{
		{DeviceID: 1, BusyUntil: 1e9, QueuedCmds: 3, KernelsRun: 9, FlopsDone: 1e12, BytesMoved: 5e9,
			EnergyJ: 120.5, ActiveUsers: 2, EWMAGFLOPS: 800, EWMAKernelSec: 0.25},
		{DeviceID: 2, BusyUntil: -1, KernelsRun: 1, EWMAKernelSec: 1.5},
	}}},
	{"ShutdownReq", &ShutdownReq{}},
	{"ErrorResp", &ErrorResp{Code: CodeBuildFailed, Message: "no kernel named saxpy"}},
}

var (
	goldenDevice = DeviceInfo{ID: 1, Type: DeviceGPU, Name: "Tesla P4", Vendor: "NVIDIA", ComputeUnits: 20,
		ClockMHz: 1063, GlobalMemBytes: 8 << 30, MaxWorkGroupSize: 1024, Shared: true,
		PeakGFLOPS: 5500, MemBWGBps: 192, TDPWatts: 75}
	goldenProfile = Profile{Queued: 100, Submit: 250, Start: 300, End: 1300}
)

// goldenPayload returns n bytes of a fixed, non-repeating-looking pattern.
func goldenPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7 % 251)
	}
	return b
}

// goldenFrame is the frame a golden case is frozen as; only its body
// depends on the message.
func goldenFrame(m Message) []byte {
	o := NewOutgoing(FrameRequest, 7, m.Op(), m)
	return AppendOutgoing(nil, &o)
}

// readGolden returns the corpus's frames by case name.
func readGolden(tb testing.TB) (map[string][]byte, error) {
	tb.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	frames := map[string][]byte{}
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, hx, ok := strings.Cut(line, " ")
		wire, err := hex.DecodeString(hx)
		if !ok || err != nil {
			tb.Fatalf("%s:%d: want \"<name> <hex frame>\" (%v)", goldenPath, i+1, err)
		}
		frames[name] = wire
	}
	return frames, nil
}

// writeGolden freezes the current codec's frame of every golden case.
func writeGolden(tb testing.TB) {
	tb.Helper()
	var out bytes.Buffer
	for _, c := range goldenCases {
		out.WriteString(c.name + " " + hex.EncodeToString(goldenFrame(c.m)) + "\n")
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// TestGoldenCorpus proves the codec byte for byte against the corpus in
// testdata/messages.golden, which was written by an earlier codec and is
// never edited by hand. For each golden case a writer's encoding
// (AppendOutgoing) must reproduce the frozen frame, the vectored and
// enveloped encodings and EncodeMessage must agree with it, and decoding
// the frozen body must give back the case's struct.
//
// The corpus is the wire format, so regenerate it only together with a
// Version bump (which changes every frame's version byte anyway): delete
// the file and run this test once. It then writes the corpus from the
// current codec and fails, so that a run which regenerates never passes.
func TestGoldenCorpus(t *testing.T) {
	frames, err := readGolden(t)
	if errors.Is(err, fs.ErrNotExist) {
		writeGolden(t)
		t.Fatalf("%s was missing and has been written from the current codec; commit it with the Version bump", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(goldenCases) {
		t.Fatalf("%s holds %d frames for %d golden cases", goldenPath, len(frames), len(goldenCases))
	}
	for _, c := range goldenCases {
		want, ok := frames[c.name]
		if !ok {
			t.Errorf("%s: no frame in the corpus", c.name)
			continue
		}
		if got := goldenFrame(c.m); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendOutgoing wrote\n%x\nthe corpus holds\n%x", c.name, got, want)
			continue
		}
		refBody(t, c.m) // every other encoding agrees with it
		out := reflect.New(reflect.TypeOf(c.m).Elem()).Interface().(Message)
		if err := DecodeMessage(out, want[headerSize:]); err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if !reflect.DeepEqual(out, c.m) {
			t.Errorf("%s: decoded %+v, want %+v", c.name, out, c.m)
		}
	}
}

// TestGoldenCorpusCoverage: the corpus has a case for every operation a
// frame can carry except the Batch envelope (which AppendBatch writes and
// the batch tests cover), and the golden cases and messageTypes, the test
// table of random messages, name the same set of message types.
func TestGoldenCorpusCoverage(t *testing.T) {
	golden := map[reflect.Type]bool{}
	ops := map[Op]bool{}
	for _, c := range goldenCases {
		golden[reflect.TypeOf(c.m)] = true
		ops[c.m.Op()] = true
	}
	for op := OpHello; op <= OpCancelPush; op++ {
		if op != OpBatch && !ops[op] {
			t.Errorf("no golden case carries %s", op)
		}
	}
	table := map[reflect.Type]bool{}
	for i := range messageTypes {
		table[reflect.TypeOf(newMessage(i))] = true
	}
	for typ := range table {
		if !golden[typ] {
			t.Errorf("%v is in messageTypes but has no golden case", typ)
		}
	}
	for typ := range golden {
		if !table[typ] {
			t.Errorf("%v has a golden case but no entry in messageTypes", typ)
		}
	}
}
