package node

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/sim"
)

const doubleSource = `
__kernel void double_it(__global float* x, const int n) {
    int i = get_global_id(0);
    if (i < n) x[i] *= 2.0f;
}
`

func testNode(t *testing.T, devices ...device.Config) *Node {
	t.Helper()
	reg := kernel.NewRegistry()
	reg.MustRegister(&kernel.Spec{
		Name:    "double_it",
		NumArgs: 2,
		Func: func(it *kernel.Item, args []kernel.Arg) {
			i := it.GlobalID(0)
			if i >= args[1].Int() {
				return
			}
			args[0].Float32s()[i] *= 2
		},
		Cost: func(g [3]int, _ []kernel.Arg) kernel.Cost {
			return kernel.Cost{Flops: int64(g[0]), Bytes: int64(g[0]) * 8}
		},
	})
	icd := device.NewICD()
	sim.RegisterDrivers(icd, reg)
	if len(devices) == 0 {
		devices = []device.Config{{Driver: sim.DriverGPU, Shared: true}}
	}
	n, err := New(Options{Name: "test-node", Devices: devices, ICD: icd, ExecWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// call sends one decoded request through a session, expecting success.
func call[T protocol.Message](t *testing.T, s *Session, req protocol.Message, resp T) T {
	t.Helper()
	got, err := s.HandleCall(req.Op(), protocol.EncodeMessage(req))
	if err != nil {
		t.Fatalf("%s: %v", req.Op(), err)
	}
	if err := protocol.DecodeMessage(resp, protocol.EncodeMessage(got)); err != nil {
		t.Fatalf("re-decode %s: %v", req.Op(), err)
	}
	return resp
}

// callErr sends one request expecting a remote error with the given code.
func callErr(t *testing.T, s *Session, req protocol.Message, wantCode uint32) {
	t.Helper()
	_, err := s.HandleCall(req.Op(), protocol.EncodeMessage(req))
	if err == nil {
		t.Fatalf("%s: expected error", req.Op())
	}
	var re *protocol.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("%s: error %v is not remote", req.Op(), err)
	}
	if re.Code != wantCode {
		t.Fatalf("%s: code = %d, want %d (%v)", req.Op(), re.Code, wantCode, re)
	}
}

func openSession(t *testing.T, n *Node, user string) *Session {
	t.Helper()
	s := n.NewSession().(*Session)
	resp := call(t, s, &protocol.HelloReq{UserID: user, WireVersion: protocol.Version}, &protocol.HelloResp{})
	if resp.NodeName != "test-node" || len(resp.Devices) == 0 {
		t.Fatalf("handshake: %+v", resp)
	}
	return s
}

// buildPipeline creates context, queue, program and kernel, returning IDs.
func buildPipeline(t *testing.T, s *Session) (ctxID, queueID, kernelID uint64) {
	t.Helper()
	ctx := call(t, s, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{})
	q := call(t, s, &protocol.CreateQueueReq{ContextID: ctx.ID, DeviceID: 1, Profiling: true}, &protocol.ObjectResp{})
	prog := call(t, s, &protocol.BuildProgramReq{ContextID: ctx.ID, Source: doubleSource}, &protocol.BuildProgramResp{})
	if len(prog.Kernels) != 1 || prog.Kernels[0] != "double_it" {
		t.Fatalf("build kernels = %v", prog.Kernels)
	}
	if !strings.Contains(prog.Log, "double_it") {
		t.Fatalf("build log = %q", prog.Log)
	}
	k := call(t, s, &protocol.CreateKernelReq{ProgramID: prog.ProgramID, Name: "double_it"}, &protocol.ObjectResp{})
	return ctx.ID, q.ID, k.ID
}

func TestFullCommandPipeline(t *testing.T) {
	n := testNode(t)
	s := openSession(t, n, "alice")
	ctxID, queueID, kernelID := buildPipeline(t, s)

	buf := call(t, s, &protocol.CreateBufferReq{ContextID: ctxID, Size: 64}, &protocol.ObjectResp{})
	in := mem.F32Bytes([]float32{1, 2, 3, 4, 5, 6, 7, 8})
	wr := call(t, s, &protocol.WriteBufferReq{
		QueueID: queueID, BufferID: buf.ID, Data: in, SimArrival: 1000,
	}, &protocol.EventResp{})
	if wr.Profile.Start < 1000 || wr.Profile.End <= wr.Profile.Start {
		t.Fatalf("write profile %+v", wr.Profile)
	}

	launch := call(t, s, &protocol.EnqueueKernelReq{
		QueueID: queueID, KernelID: kernelID,
		Global: []int64{8},
		Args: []protocol.KernelArg{
			{Kind: protocol.ArgBuffer, BufferID: buf.ID},
			{Kind: protocol.ArgScalar, Scalar: kernel.EncodeScalar(int32(8))},
		},
		WaitEvents: []int64{int64(wr.EventID)},
	}, &protocol.EventResp{})
	if launch.Profile.Start < wr.Profile.End {
		t.Fatalf("launch started before its wait event: %+v vs %+v", launch.Profile, wr.Profile)
	}

	rd := call(t, s, &protocol.ReadBufferReq{
		QueueID: queueID, BufferID: buf.ID, Size: 32,
		WaitEvents: []int64{int64(launch.EventID)},
	}, &protocol.ReadBufferResp{})
	got := mem.BytesF32(rd.Data)
	for i, v := range got {
		if v != float32(2*(i+1)) {
			t.Fatalf("element %d = %v", i, v)
		}
	}

	fin := call(t, s, &protocol.FinishQueueReq{QueueID: queueID}, &protocol.FinishQueueResp{})
	if fin.SimTime < rd.Profile.End {
		t.Fatalf("finish time %d before last event %d", fin.SimTime, rd.Profile.End)
	}

	ev := call(t, s, &protocol.QueryEventReq{EventID: launch.EventID}, &protocol.QueryEventResp{})
	if !ev.Complete || ev.Profile.End != launch.Profile.End {
		t.Fatalf("query event: %+v", ev)
	}

	// Monitor accounting.
	status := n.Status()
	if len(status) != 1 {
		t.Fatalf("status: %v", status)
	}
	st := status[0]
	if st.KernelsRun != 1 || st.FlopsDone != 8 || st.EnergyJ <= 0 || st.EWMAGFLOPS <= 0 {
		t.Fatalf("status = %+v", st)
	}
}

func TestCopyBuffer(t *testing.T) {
	n := testNode(t)
	s := openSession(t, n, "alice")
	ctxID, queueID, _ := buildPipeline(t, s)
	src := call(t, s, &protocol.CreateBufferReq{ContextID: ctxID, Size: 16}, &protocol.ObjectResp{})
	dst := call(t, s, &protocol.CreateBufferReq{ContextID: ctxID, Size: 16}, &protocol.ObjectResp{})
	call(t, s, &protocol.WriteBufferReq{QueueID: queueID, BufferID: src.ID,
		Data: mem.F32Bytes([]float32{9, 8, 7, 6})}, &protocol.EventResp{})
	call(t, s, &protocol.CopyBufferReq{QueueID: queueID, SrcID: src.ID, DstID: dst.ID, Size: 16}, &protocol.EventResp{})
	rd := call(t, s, &protocol.ReadBufferReq{QueueID: queueID, BufferID: dst.ID, Size: 16}, &protocol.ReadBufferResp{})
	if got := mem.BytesF32(rd.Data); got[0] != 9 || got[3] != 6 {
		t.Fatalf("copy result %v", got)
	}
	callErr(t, s, &protocol.CopyBufferReq{QueueID: queueID, SrcID: src.ID, DstID: dst.ID, Size: 99},
		protocol.CodeBadRequest)
}

func TestErrorPaths(t *testing.T) {
	n := testNode(t)
	s := openSession(t, n, "alice")
	ctxID, queueID, kernelID := buildPipeline(t, s)
	buf := call(t, s, &protocol.CreateBufferReq{ContextID: ctxID, Size: 64}, &protocol.ObjectResp{})

	callErr(t, s, &protocol.CreateContextReq{DeviceIDs: []int64{42}}, protocol.CodeUnknownObject)
	callErr(t, s, &protocol.CreateContextReq{}, protocol.CodeBadRequest)
	callErr(t, s, &protocol.CreateQueueReq{ContextID: 999, DeviceID: 1}, protocol.CodeUnknownObject)
	callErr(t, s, &protocol.CreateQueueReq{ContextID: ctxID, DeviceID: 42}, protocol.CodeBadRequest)
	callErr(t, s, &protocol.CreateBufferReq{ContextID: ctxID, Size: -1}, protocol.CodeBadRequest)
	callErr(t, s, &protocol.WriteBufferReq{QueueID: queueID, BufferID: 999}, protocol.CodeUnknownObject)
	callErr(t, s, &protocol.WriteBufferReq{QueueID: queueID, BufferID: buf.ID,
		Offset: 60, Data: make([]byte, 16)}, protocol.CodeBadRequest)
	callErr(t, s, &protocol.ReadBufferReq{QueueID: queueID, BufferID: buf.ID, Offset: 0, Size: 999},
		protocol.CodeBadRequest)
	callErr(t, s, &protocol.BuildProgramReq{ContextID: ctxID, Source: "not opencl at all"},
		protocol.CodeBuildFailed)
	callErr(t, s, &protocol.BuildProgramReq{ContextID: ctxID,
		Source: `__kernel void nope(__global int* x) { }`}, protocol.CodeBuildFailed)
	callErr(t, s, &protocol.CreateKernelReq{ProgramID: 999, Name: "double_it"}, protocol.CodeUnknownObject)

	// Arg validation against the parsed OpenCL C signature.
	callErr(t, s, &protocol.EnqueueKernelReq{
		QueueID: queueID, KernelID: kernelID, Global: []int64{8},
		Args: []protocol.KernelArg{{Kind: protocol.ArgBuffer, BufferID: buf.ID}},
	}, protocol.CodeLaunchFailed) // missing scalar arg
	callErr(t, s, &protocol.EnqueueKernelReq{
		QueueID: queueID, KernelID: kernelID, Global: []int64{8},
		Args: []protocol.KernelArg{
			{Kind: protocol.ArgScalar, Scalar: kernel.EncodeScalar(int32(1))},
			{Kind: protocol.ArgScalar, Scalar: kernel.EncodeScalar(int32(8))},
		},
	}, protocol.CodeLaunchFailed) // scalar bound to pointer param
	callErr(t, s, &protocol.EnqueueKernelReq{
		QueueID: queueID, KernelID: kernelID, Global: []int64{8},
		Args: []protocol.KernelArg{
			{Kind: protocol.ArgBuffer, BufferID: buf.ID},
			{Kind: protocol.ArgScalar, Scalar: []byte{1}}, // int wants 4 bytes
		},
	}, protocol.CodeLaunchFailed)
	callErr(t, s, &protocol.EnqueueKernelReq{
		QueueID: queueID, KernelID: kernelID, Global: []int64{10}, Local: []int64{3},
		Args: []protocol.KernelArg{
			{Kind: protocol.ArgBuffer, BufferID: buf.ID},
			{Kind: protocol.ArgScalar, Scalar: kernel.EncodeScalar(int32(8))},
		},
	}, protocol.CodeLaunchFailed) // indivisible NDRange

	callErr(t, s, &protocol.QueryEventReq{EventID: 9999}, protocol.CodeUnknownObject)
	callErr(t, s, &protocol.FinishQueueReq{QueueID: 9999}, protocol.CodeUnknownObject)
}

// TestLaunchWireArgsBorrowed: a launch decodes its wire arguments into
// storage it borrows for its registration only. Launches registering
// concurrently, each with its own scalar, must each run with their own
// arguments, and a list longer than the borrowed storage still decodes —
// and is refused for the kernel's arity, not mangled.
func TestLaunchWireArgsBorrowed(t *testing.T) {
	n := testNode(t)
	s := openSession(t, n, "alice")
	ctxID, queueID, kernelID := buildPipeline(t, s)
	const elems = 8
	ones := mem.F32Bytes([]float32{1, 1, 1, 1, 1, 1, 1, 1})
	launch := func(queueID, bufID uint64, count int32) error {
		_, err := s.HandleCall(protocol.OpEnqueueKernel, protocol.EncodeMessage(&protocol.EnqueueKernelReq{
			QueueID: queueID, KernelID: kernelID, Global: []int64{elems},
			Args: []protocol.KernelArg{
				{Kind: protocol.ArgBuffer, BufferID: bufID},
				{Kind: protocol.ArgScalar, Scalar: kernel.EncodeScalar(count)},
			},
		}))
		return err
	}
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		q := call(t, s, &protocol.CreateQueueReq{ContextID: ctxID, DeviceID: 1}, &protocol.ObjectResp{})
		buf := call(t, s, &protocol.CreateBufferReq{ContextID: ctxID, Size: 4 * elems}, &protocol.ObjectResp{})
		wg.Add(1)
		go func(count int32) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := s.HandleCall(protocol.OpWriteBuffer, protocol.EncodeMessage(&protocol.WriteBufferReq{
					QueueID: q.ID, BufferID: buf.ID, Data: ones,
				})); err != nil {
					t.Error(err)
					return
				}
				if err := launch(q.ID, buf.ID, count); err != nil {
					t.Error(err)
					return
				}
				m, err := s.HandleCall(protocol.OpReadBuffer, protocol.EncodeMessage(&protocol.ReadBufferReq{
					QueueID: q.ID, BufferID: buf.ID, Size: 4 * elems,
				}))
				if err != nil {
					t.Error(err)
					return
				}
				for j, v := range mem.BytesF32(m.(*protocol.ReadBufferResp).Data) {
					if want := float32(1 + btoi(int32(j) < count)); v != want {
						t.Errorf("launch with n=%d: element %d = %v, want %v", count, j, v, want)
						return
					}
				}
			}
		}(int32(g))
	}
	wg.Wait()

	long := make([]protocol.KernelArg, 9)
	for i := range long {
		long[i] = protocol.KernelArg{Kind: protocol.ArgScalar, Scalar: kernel.EncodeScalar(int32(i))}
	}
	_, err := s.HandleCall(protocol.OpEnqueueKernel, protocol.EncodeMessage(&protocol.EnqueueKernelReq{
		QueueID: queueID, KernelID: kernelID, Global: []int64{elems}, Args: long,
	}))
	if err == nil || !strings.Contains(err.Error(), "takes 2 args, got 9") {
		t.Fatalf("launch with 9 args: %v, want the arity refused", err)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestHostileNDRangeRefused: a launch decodes its NDRange into storage for
// 3+3 dimensions inside its command. Longer ones — which no host sends —
// decode into fresh slices and are refused with the executor's error, and
// wait lists longer than the command's inline storage still resolve.
func TestHostileNDRangeRefused(t *testing.T) {
	n := testNode(t)
	s := openSession(t, n, "alice")
	ctxID, queueID, kernelID := buildPipeline(t, s)
	buf := call(t, s, &protocol.CreateBufferReq{ContextID: ctxID, Size: 64}, &protocol.ObjectResp{})
	args := []protocol.KernelArg{
		{Kind: protocol.ArgBuffer, BufferID: buf.ID},
		{Kind: protocol.ArgScalar, Scalar: kernel.EncodeScalar(int32(8))},
	}
	for _, r := range []struct {
		global, local []int64
		want          string
	}{
		{[]int64{8, 1, 1, 1}, nil, "4 dimensions"},
		{[]int64{8}, []int64{1, 1, 1, 1, 1, 1, 1}, "7 dimensions"},
		{[]int64{8, 1, 1, 1, 1, 1, 1, 1}, []int64{8, 1, 1, 1, 1, 1, 1, 1}, "8 dimensions"},
	} {
		_, err := s.HandleCall(protocol.OpEnqueueKernel, protocol.EncodeMessage(&protocol.EnqueueKernelReq{
			QueueID: queueID, KernelID: kernelID, Global: r.global, Local: r.local, Args: args,
		}))
		var re *protocol.RemoteError
		if !errors.As(err, &re) || re.Code != protocol.CodeLaunchFailed || !strings.Contains(err.Error(), "invalid NDRange: "+r.want) {
			t.Fatalf("launch over %v by %v: err = %v, want a launch failure for %s", r.global, r.local, err, r.want)
		}
	}

	var waits []int64
	for i := 0; i < 6; i++ {
		ev := call(t, s, &protocol.WriteBufferReq{QueueID: queueID, BufferID: buf.ID,
			Data: mem.F32Bytes([]float32{float32(i)}), EventID: uint64(100 + i)}, &protocol.EventResp{})
		waits = append(waits, int64(ev.EventID))
	}
	launch := call(t, s, &protocol.EnqueueKernelReq{
		QueueID: queueID, KernelID: kernelID, Global: []int64{8, 1, 1}, Local: []int64{4, 1, 1},
		Args: args, EventID: 200, WaitEvents: waits,
	}, &protocol.EventResp{})
	if launch.EventID != 200 {
		t.Fatalf("launch event %d, want 200", launch.EventID)
	}
	rd := call(t, s, &protocol.ReadBufferReq{QueueID: queueID, BufferID: buf.ID, Size: 4}, &protocol.ReadBufferResp{})
	if got := mem.BytesF32(rd.Data)[0]; got != 10 {
		t.Fatalf("after the launch float 0 = %v, want 10 (the last write, doubled)", got)
	}
}

func TestReleaseSemantics(t *testing.T) {
	n := testNode(t)
	s := openSession(t, n, "alice")
	ctxID, queueID, _ := buildPipeline(t, s)
	buf := call(t, s, &protocol.CreateBufferReq{ContextID: ctxID, Size: 16}, &protocol.ObjectResp{})

	call(t, s, &protocol.ReleaseReq{Kind: protocol.ObjBuffer, ID: buf.ID}, &protocol.EmptyResp{})
	// Double release is an error, as in OpenCL.
	callErr(t, s, &protocol.ReleaseReq{Kind: protocol.ObjBuffer, ID: buf.ID}, protocol.CodeUnknownObject)
	// The released buffer is unusable.
	callErr(t, s, &protocol.WriteBufferReq{QueueID: queueID, BufferID: buf.ID, Data: []byte{1}},
		protocol.CodeUnknownObject)

	// An ID under the wrong kind — a buffer's as a queue's — is refused with
	// the kind's name and leaves the object in place.
	other := call(t, s, &protocol.CreateBufferReq{ContextID: ctxID, Size: 16}, &protocol.ObjectResp{})
	for _, req := range []protocol.Message{
		&protocol.ReleaseReq{Kind: protocol.ObjQueue, ID: other.ID},
		&protocol.WriteBufferReq{QueueID: other.ID, BufferID: other.ID, Data: []byte{1}},
	} {
		_, err := s.HandleCall(req.Op(), protocol.EncodeMessage(req))
		var re *protocol.RemoteError
		if !errors.As(err, &re) || re.Code != protocol.CodeUnknownObject ||
			!strings.Contains(re.Message, fmt.Sprintf("unknown queue %d", other.ID)) {
			t.Fatalf("%s naming buffer %d as a queue: err = %v, want unknown queue", req.Op(), other.ID, err)
		}
	}
	call(t, s, &protocol.WriteBufferReq{QueueID: queueID, BufferID: other.ID, Data: []byte{1}}, &protocol.EventResp{})

	call(t, s, &protocol.ReleaseReq{Kind: protocol.ObjQueue, ID: queueID}, &protocol.EmptyResp{})
	callErr(t, s, &protocol.ReleaseReq{Kind: protocol.ObjectKind(99), ID: 1}, protocol.CodeBadRequest)
}

// TestReleaseVector: a Release naming several IDs drops every one of them
// under one registration step, attempts the IDs after a stale one, reports
// the first failure by ID, and leaves the session's event table empty.
func TestReleaseVector(t *testing.T) {
	n := testNode(t)
	s := openSession(t, n, "alice")
	ctxID, queueID, _ := buildPipeline(t, s)
	buf := call(t, s, &protocol.CreateBufferReq{ContextID: ctxID, Size: 16}, &protocol.ObjectResp{})
	const burst = 40
	for id := uint64(1); id <= burst; id++ {
		call(t, s, &protocol.WriteBufferReq{QueueID: queueID, BufferID: buf.ID, Data: []byte{1}, EventID: id}, &protocol.EventResp{})
	}
	vector := func(first uint64, rest ...uint64) *protocol.ReleaseReq {
		return &protocol.ReleaseReq{Kind: protocol.ObjEvent, ID: first, More: rest}
	}
	// IDs 1-3 go; 3 again and the never-issued 99 are stale, 4 and 5 sit
	// behind them and must still go.
	_, err := s.HandleCall(protocol.OpRelease, protocol.EncodeMessage(vector(1, 2, 3, 3, 99, 4, 5)))
	var re *protocol.RemoteError
	if !errors.As(err, &re) || re.Code != protocol.CodeUnknownObject || !strings.Contains(re.Message, "unknown event 3") {
		t.Fatalf("vector with stale IDs: err = %v, want unknown event 3", err)
	}
	for id := uint64(1); id <= 5; id++ {
		callErr(t, s, &protocol.QueryEventReq{EventID: id}, protocol.CodeUnknownObject)
	}
	rest := make([]uint64, 0, burst)
	for id := uint64(7); id <= burst; id++ {
		rest = append(rest, id)
	}
	call(t, s, vector(6, rest...), &protocol.EmptyResp{})
	s.mu.Lock()
	live := len(s.events)
	s.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d events survive the release of all %d", live, burst)
	}

	// Other kinds take the same path: both buffers go although the ID
	// between them is stale.
	buf2 := call(t, s, &protocol.CreateBufferReq{ContextID: ctxID, Size: 16}, &protocol.ObjectResp{})
	callErr(t, s, &protocol.ReleaseReq{Kind: protocol.ObjBuffer, ID: buf.ID, More: []uint64{9999, buf2.ID}},
		protocol.CodeUnknownObject)
	callErr(t, s, &protocol.ReleaseReq{Kind: protocol.ObjBuffer, ID: buf.ID}, protocol.CodeUnknownObject)
	callErr(t, s, &protocol.ReleaseReq{Kind: protocol.ObjBuffer, ID: buf2.ID}, protocol.CodeUnknownObject)
}

// TestHelloVersionNegotiation: there is nothing left to negotiate. A host
// at protocol.Version is answered with it; any other offer — 0, the retired
// 2 to 4, a newer one — is refused with CodeUnsupported naming both
// versions, and the refused session learns nothing from the Hello.
func TestHelloVersionNegotiation(t *testing.T) {
	n := testNode(t)
	for _, v := range []uint32{0, 2, 3, 4, protocol.Version + 1} {
		s := n.NewSession().(*Session)
		_, err := s.HandleCall(protocol.OpHello, protocol.EncodeMessage(&protocol.HelloReq{UserID: "x", WireVersion: v}))
		var re *protocol.RemoteError
		if !errors.As(err, &re) || re.Code != protocol.CodeUnsupported {
			t.Fatalf("version %d: err = %v, want CodeUnsupported", v, err)
		}
		for _, want := range []string{fmt.Sprintf("wire version %d", v), fmt.Sprintf("speaks version %d", protocol.Version)} {
			if !strings.Contains(re.Message, want) {
				t.Fatalf("version %d: refusal %q does not say %q", v, re.Message, want)
			}
		}
		if u := s.user(); u != "anonymous" {
			t.Fatalf("version %d: refused Hello set the user to %q", v, u)
		}
	}

	s := n.NewSession().(*Session)
	resp := call(t, s, &protocol.HelloReq{UserID: "x", WireVersion: protocol.Version}, &protocol.HelloResp{})
	if resp.WireVersion != protocol.Version {
		t.Fatalf("answered with version %d, want %d", resp.WireVersion, protocol.Version)
	}
}

func TestUnsupportedOp(t *testing.T) {
	n := testNode(t)
	s := openSession(t, n, "x")
	if _, err := s.HandleCall(protocol.Op(200), nil); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestExclusiveDeviceMultiUser(t *testing.T) {
	n := testNode(t, device.Config{Driver: sim.DriverGPU, Shared: false})
	alice := openSession(t, n, "alice")
	bob := openSession(t, n, "bob")

	ctxA := call(t, alice, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{})
	qA := call(t, alice, &protocol.CreateQueueReq{ContextID: ctxA.ID, DeviceID: 1}, &protocol.ObjectResp{})

	// Bob cannot queue on Alice's exclusive device.
	ctxB := call(t, bob, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{})
	callErr(t, bob, &protocol.CreateQueueReq{ContextID: ctxB.ID, DeviceID: 1}, protocol.CodeDeviceBusy)

	// Alice may create more queues on her own device.
	call(t, alice, &protocol.CreateQueueReq{ContextID: ctxA.ID, DeviceID: 1}, &protocol.ObjectResp{})

	// After Alice releases everything, Bob gets in.
	call(t, alice, &protocol.ReleaseReq{Kind: protocol.ObjQueue, ID: qA.ID}, &protocol.EmptyResp{})
	if err := alice.Close(); err != nil {
		t.Fatal(err)
	}
	call(t, bob, &protocol.CreateQueueReq{ContextID: ctxB.ID, DeviceID: 1}, &protocol.ObjectResp{})
}

func TestSharedDeviceMultiUser(t *testing.T) {
	n := testNode(t, device.Config{Driver: sim.DriverGPU, Shared: true})
	alice := openSession(t, n, "alice")
	bob := openSession(t, n, "bob")
	ctxA := call(t, alice, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{})
	ctxB := call(t, bob, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{})
	call(t, alice, &protocol.CreateQueueReq{ContextID: ctxA.ID, DeviceID: 1}, &protocol.ObjectResp{})
	call(t, bob, &protocol.CreateQueueReq{ContextID: ctxB.ID, DeviceID: 1}, &protocol.ObjectResp{})
	st := n.Status()
	if st[0].ActiveUsers != 2 {
		t.Fatalf("active users = %d, want 2", st[0].ActiveUsers)
	}
}

func TestSessionCloseReleasesQueues(t *testing.T) {
	n := testNode(t, device.Config{Driver: sim.DriverFPGA, Shared: false, Bitstreams: []string{"double_it"}})
	alice := openSession(t, n, "alice")
	ctx := call(t, alice, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{})
	call(t, alice, &protocol.CreateQueueReq{ContextID: ctx.ID, DeviceID: 1}, &protocol.ObjectResp{})
	if err := alice.Close(); err != nil {
		t.Fatal(err)
	}
	// A disconnected session must free its exclusive device.
	bob := openSession(t, n, "bob")
	ctxB := call(t, bob, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{})
	call(t, bob, &protocol.CreateQueueReq{ContextID: ctxB.ID, DeviceID: 1}, &protocol.ObjectResp{})
}

func TestCostOverride(t *testing.T) {
	n := testNode(t)
	s := openSession(t, n, "alice")
	ctxID, queueID, kernelID := buildPipeline(t, s)
	buf := call(t, s, &protocol.CreateBufferReq{ContextID: ctxID, Size: 64}, &protocol.ObjectResp{})

	args := []protocol.KernelArg{
		{Kind: protocol.ArgBuffer, BufferID: buf.ID},
		{Kind: protocol.ArgScalar, Scalar: kernel.EncodeScalar(int32(8))},
	}
	small := call(t, s, &protocol.EnqueueKernelReq{
		QueueID: queueID, KernelID: kernelID, Global: []int64{8}, Args: args,
	}, &protocol.EventResp{})
	big := call(t, s, &protocol.EnqueueKernelReq{
		QueueID: queueID, KernelID: kernelID, Global: []int64{8}, Args: args,
		CostFlops: 1e12, CostBytes: 1e12,
	}, &protocol.EventResp{})
	if big.Profile.DurationNS() <= small.Profile.DurationNS()*1000 {
		t.Fatalf("cost override ignored: small=%dns big=%dns",
			small.Profile.DurationNS(), big.Profile.DurationNS())
	}
}

func TestNodeValidation(t *testing.T) {
	if _, err := New(Options{Name: "x"}); err == nil {
		t.Fatal("node without ICD accepted")
	}
	icd := device.NewICD()
	sim.RegisterDrivers(icd, kernel.NewRegistry())
	if _, err := New(Options{Name: "x", ICD: icd}); err == nil {
		t.Fatal("node without devices accepted")
	}
	if _, err := New(Options{Name: "x", ICD: icd,
		Devices: []device.Config{{Driver: "nope"}}}); err == nil {
		t.Fatal("node with bad driver accepted")
	}
}

func TestDeviceInfosTypeMask(t *testing.T) {
	n := testNode(t,
		device.Config{Driver: sim.DriverGPU, ID: 1, Shared: true},
		device.Config{Driver: sim.DriverCPU, ID: 2, Shared: true},
	)
	all := n.DeviceInfos(0)
	if len(all) != 2 {
		t.Fatalf("all = %d", len(all))
	}
	gpus := n.DeviceInfos(1 << uint8(protocol.DeviceGPU))
	if len(gpus) != 1 || gpus[0].Type != protocol.DeviceGPU {
		t.Fatalf("gpus = %+v", gpus)
	}
}

// TestRangedCommandValidation: read/write/copy ranges are validated in the
// registration stage, overflow-safely — the host's delta migration issues
// ranged commands at arbitrary offsets, so a wrapping offset+size must not
// slip past the bound check, and a malformed range must fail its event
// before the command ever occupies a lane.
func TestRangedCommandValidation(t *testing.T) {
	n := testNode(t)
	s := openSession(t, n, "alice")
	ctxID, queueID, _ := buildPipeline(t, s)
	buf := call(t, s, &protocol.CreateBufferReq{ContextID: ctxID, Size: 64}, &protocol.ObjectResp{})
	buf2 := call(t, s, &protocol.CreateBufferReq{ContextID: ctxID, Size: 64}, &protocol.ObjectResp{})

	// In-bounds ranged write/read round trip at a non-zero offset.
	call(t, s, &protocol.WriteBufferReq{
		QueueID: queueID, BufferID: buf.ID, Offset: 16, Data: []byte{1, 2, 3, 4},
	}, &protocol.EventResp{})
	rd := call(t, s, &protocol.ReadBufferReq{
		QueueID: queueID, BufferID: buf.ID, Offset: 16, Size: 4,
	}, &protocol.ReadBufferResp{})
	if string(rd.Data) != string([]byte{1, 2, 3, 4}) {
		t.Fatalf("ranged read = %v", rd.Data)
	}

	const maxI64 = int64(^uint64(0) >> 1)
	badWrites := []*protocol.WriteBufferReq{
		{QueueID: queueID, BufferID: buf.ID, Offset: -1, Data: []byte{1}},
		{QueueID: queueID, BufferID: buf.ID, Offset: 61, Data: []byte{1, 2, 3, 4}},
		{QueueID: queueID, BufferID: buf.ID, Offset: maxI64 - 1, Data: []byte{1, 2, 3, 4}}, // offset+len wraps
	}
	for _, req := range badWrites {
		callErr(t, s, req, protocol.CodeBadRequest)
	}
	badReads := []*protocol.ReadBufferReq{
		{QueueID: queueID, BufferID: buf.ID, Offset: 0, Size: -1},
		{QueueID: queueID, BufferID: buf.ID, Offset: 60, Size: 5},
		{QueueID: queueID, BufferID: buf.ID, Offset: maxI64 - 1, Size: 4}, // offset+size wraps
	}
	for _, req := range badReads {
		callErr(t, s, req, protocol.CodeBadRequest)
	}
	badCopies := []*protocol.CopyBufferReq{
		{QueueID: queueID, SrcID: buf.ID, DstID: buf2.ID, SrcOffset: 60, DstOffset: 0, Size: 8},
		{QueueID: queueID, SrcID: buf.ID, DstID: buf2.ID, SrcOffset: 0, DstOffset: 60, Size: 8},
		{QueueID: queueID, SrcID: buf.ID, DstID: buf2.ID, SrcOffset: 0, DstOffset: 0, Size: -4},
		{QueueID: queueID, SrcID: buf.ID, DstID: buf2.ID, SrcOffset: maxI64 - 1, DstOffset: 0, Size: 8},
	}
	for _, req := range badCopies {
		callErr(t, s, req, protocol.CodeBadRequest)
	}

	// Async path: the bad range fails the claimed event at registration, so
	// a pipelined waiter behind it observes the cascade instead of hanging.
	done := make(chan error, 1)
	s.HandleCallAsync(protocol.OpWriteBuffer, protocol.EncodeMessage(&protocol.WriteBufferReq{
		QueueID: queueID, BufferID: buf.ID, Offset: 100, Data: []byte{1}, EventID: 7001,
	}), func(_ protocol.Message, err error) { done <- err })
	if err := <-done; err == nil {
		t.Fatal("async out-of-bounds write accepted")
	}
	s.HandleCallAsync(protocol.OpWriteBuffer, protocol.EncodeMessage(&protocol.WriteBufferReq{
		QueueID: queueID, BufferID: buf.ID, Offset: 0, Data: []byte{1},
		EventID: 7002, WaitEvents: []int64{7001},
	}), func(_ protocol.Message, err error) { done <- err })
	var re *protocol.RemoteError
	if err := <-done; !errors.As(err, &re) {
		t.Fatalf("waiter behind failed range = %v, want remote error cascade", err)
	}
}

// objectCount reads the size of a session's object table.
func objectCount(s *Session) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

// TestSessionCloseDropsObjects: a connection that closes without a single
// Release leaves nothing on the node — its table is empty, and its
// exclusive device is free for another user.
func TestSessionCloseDropsObjects(t *testing.T) {
	n := testNode(t, device.Config{Driver: sim.DriverGPU, Shared: false})
	alice := openSession(t, n, "alice")
	ctxID, _, _ := buildPipeline(t, alice)
	call(t, alice, &protocol.CreateBufferReq{ContextID: ctxID, Size: 1 << 20}, &protocol.ObjectResp{})
	if got := objectCount(alice); got != 5 {
		t.Fatalf("table holds %d objects, want context, queue, program, kernel and buffer", got)
	}
	if err := alice.Close(); err != nil {
		t.Fatal(err)
	}
	if got := objectCount(alice); got != 0 {
		t.Fatalf("%d objects survive Close", got)
	}
	if users := n.Status()[0].ActiveUsers; users != 0 {
		t.Fatalf("device has %d users after Close, want 0", users)
	}
	bob := openSession(t, n, "bob")
	ctxB := call(t, bob, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{})
	call(t, bob, &protocol.CreateQueueReq{ContextID: ctxB.ID, DeviceID: 1}, &protocol.ObjectResp{})
}

// TestObjectsBelongToTheirConnection: a second connection, of the same
// user, can neither write to the first one's buffer nor release it or the
// first one's queue, and the first connection's objects keep working.
func TestObjectsBelongToTheirConnection(t *testing.T) {
	n := testNode(t)
	first := openSession(t, n, "alice")
	ctx1 := call(t, first, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{})
	q1 := call(t, first, &protocol.CreateQueueReq{ContextID: ctx1.ID, DeviceID: 1}, &protocol.ObjectResp{})
	buf1 := call(t, first, &protocol.CreateBufferReq{ContextID: ctx1.ID, Size: 4}, &protocol.ObjectResp{})
	call(t, first, &protocol.WriteBufferReq{QueueID: q1.ID, BufferID: buf1.ID, Data: []byte{1, 2, 3, 4}}, &protocol.EventResp{})

	second := openSession(t, n, "alice")
	ctx2 := call(t, second, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{})
	q2 := call(t, second, &protocol.CreateQueueReq{ContextID: ctx2.ID, DeviceID: 1}, &protocol.ObjectResp{})
	callErr(t, second, &protocol.WriteBufferReq{QueueID: q2.ID, BufferID: buf1.ID, Data: []byte{9, 9, 9, 9}},
		protocol.CodeUnknownObject)
	callErr(t, second, &protocol.ReleaseReq{Kind: protocol.ObjBuffer, ID: buf1.ID}, protocol.CodeUnknownObject)
	callErr(t, second, &protocol.ReleaseReq{Kind: protocol.ObjQueue, ID: q1.ID}, protocol.CodeUnknownObject)

	call(t, first, &protocol.WriteBufferReq{QueueID: q1.ID, BufferID: buf1.ID, Offset: 3, Data: []byte{5}}, &protocol.EventResp{})
	got := call(t, first, &protocol.ReadBufferReq{QueueID: q1.ID, BufferID: buf1.ID, Size: 4}, &protocol.ReadBufferResp{})
	if string(got.Data) != string([]byte{1, 2, 3, 5}) {
		t.Fatalf("first connection reads %v, want [1 2 3 5]", got.Data)
	}
}

// TestCloseRacesCreates: creates in flight while the session closes either
// complete or are refused as the session shuts down, and none of what
// completed survives Close.
func TestCloseRacesCreates(t *testing.T) {
	n := testNode(t, device.Config{Driver: sim.DriverGPU, Shared: false})
	for round := 0; round < 10; round++ {
		s := openSession(t, n, "alice")
		ctx := call(t, s, &protocol.CreateContextReq{DeviceIDs: []int64{1}}, &protocol.ObjectResp{})
		var wg, started sync.WaitGroup
		errs := make(chan error, 32)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			started.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					if i == 1 {
						started.Done()
					}
					var req protocol.Message = &protocol.CreateBufferReq{ContextID: ctx.ID, Size: 64}
					if i%2 == 1 {
						req = &protocol.CreateQueueReq{ContextID: ctx.ID, DeviceID: 1}
					}
					_, err := s.HandleCall(req.Op(), protocol.EncodeMessage(req))
					if err != nil && !strings.Contains(err.Error(), "session is shutting down") {
						errs <- fmt.Errorf("%s: %w", req.Op(), err)
					}
				}
			}()
		}
		started.Wait() // every goroutine's first create is done
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := objectCount(s); got != 0 {
			t.Fatalf("round %d: %d objects survive Close", round, got)
		}
		if users := n.Status()[0].ActiveUsers; users != 0 {
			t.Fatalf("round %d: device has %d users after Close", round, users)
		}
	}
}

// TestControlOpsStartNoGoroutine: an op that targets no queue runs and is
// answered in the registration stage, so a session that only says Hello,
// creates, builds and releases starts no goroutine of its own.
func TestControlOpsStartNoGoroutine(t *testing.T) {
	n := testNode(t)
	const sessions = 50
	before := runtime.NumGoroutine()
	for i := 0; i < sessions; i++ {
		s := openSession(t, n, "alice")
		defer s.Close()
		ctx, _, k := buildPipeline(t, s)
		buf := call(t, s, &protocol.CreateBufferReq{ContextID: ctx, Size: 64}, &protocol.ObjectResp{})
		call(t, s, &protocol.ReleaseReq{Kind: protocol.ObjBuffer, ID: buf.ID}, &protocol.EmptyResp{})
		call(t, s, &protocol.ReleaseReq{Kind: protocol.ObjKernel, ID: k}, &protocol.EmptyResp{})
	}
	if grew := runtime.NumGoroutine() - before; grew >= sessions {
		t.Fatalf("%d sessions of control ops left %d more goroutines, want fewer than %d",
			sessions, grew, sessions)
	}
}

// TestHostNamedObjects: a create takes effect when it is registered, under
// the ID its request carries, so a request behind it in the same envelope
// can name the object. A taken ID, or one in the node's synthetic range,
// is refused with CodeBadRequest and the object holding it survives; a
// create naming no ID gets one minted by the node, which its reply
// carries.
func TestHostNamedObjects(t *testing.T) {
	n := testNode(t)
	w := dialWire(t, n)
	wireCall(w, 1, &protocol.HelloReq{UserID: "host", WireVersion: protocol.Version}, &protocol.HelloResp{})
	wireCall(w, 2, &protocol.CreateContextReq{DeviceIDs: []int64{1}, ID: 1}, &protocol.ObjectResp{})
	wireCall(w, 3, &protocol.CreateQueueReq{ContextID: 1, DeviceID: 1, ID: 2}, &protocol.ObjectResp{})

	want := []byte("host-named object")
	w.send(
		request(4, &protocol.CreateBufferReq{ContextID: 1, Size: int64(len(want)), ID: 7}),
		request(5, &protocol.WriteBufferReq{QueueID: 2, BufferID: 7, Data: want, EventID: 1}),
	)
	var created protocol.ObjectResp
	if err := protocol.DecodeMessage(&created, w.await(4, 5)[4].Body); err != nil || created.ID != 7 {
		t.Fatalf("CreateBuffer answered ID %d (%v), want the 7 it named", created.ID, err)
	}
	readBack := func(id uint64, reqID uint64) []byte {
		t.Helper()
		return wireCall(w, reqID, &protocol.ReadBufferReq{QueueID: 2, BufferID: id, Size: int64(len(want))},
			&protocol.ReadBufferResp{}).Data
	}
	if got := readBack(7, 6); !bytes.Equal(got, want) {
		t.Fatalf("buffer 7 reads %q, want %q", got, want)
	}

	s := openSession(t, n, "direct")
	ctx := call(t, s, &protocol.CreateContextReq{DeviceIDs: []int64{1}, ID: 1}, &protocol.ObjectResp{})
	if ctx.ID != 1 {
		t.Fatalf("context answered ID %d, want 1", ctx.ID)
	}
	q := call(t, s, &protocol.CreateQueueReq{ContextID: 1, DeviceID: 1, ID: 2}, &protocol.ObjectResp{})
	call(t, s, &protocol.CreateBufferReq{ContextID: 1, Size: int64(len(want)), ID: 7}, &protocol.ObjectResp{})
	call(t, s, &protocol.WriteBufferReq{QueueID: q.ID, BufferID: 7, Data: want}, &protocol.EventResp{})
	call(t, s, &protocol.BuildProgramReq{ContextID: 1, Source: doubleSource, ID: 3}, &protocol.BuildProgramResp{})
	for _, req := range []protocol.Message{
		&protocol.CreateBufferReq{ContextID: 1, Size: 64, ID: 7},
		&protocol.CreateKernelReq{ProgramID: 3, Name: "double_it", ID: 2},
		&protocol.CreateBufferReq{ContextID: 1, Size: 64, ID: synthBase},
	} {
		callErr(t, s, req, protocol.CodeBadRequest)
	}
	rd := call(t, s, &protocol.ReadBufferReq{QueueID: q.ID, BufferID: 7, Size: int64(len(want))}, &protocol.ReadBufferResp{})
	if !bytes.Equal(rd.Data, want) {
		t.Fatalf("buffer 7 reads %q after the refused duplicate, want %q", rd.Data, want)
	}
	if got := objectCount(s); got != 4 {
		t.Fatalf("%d objects after the refused creates, want 4", got)
	}

	minted := call(t, s, &protocol.CreateBufferReq{ContextID: 1, Size: 4}, &protocol.ObjectResp{})
	if minted.ID < synthBase {
		t.Fatalf("node-minted ID %d lies below the synthetic range", minted.ID)
	}
	call(t, s, &protocol.WriteBufferReq{QueueID: q.ID, BufferID: minted.ID, Data: []byte("mint")}, &protocol.EventResp{})
	rd = call(t, s, &protocol.ReadBufferReq{QueueID: q.ID, BufferID: minted.ID, Size: 4}, &protocol.ReadBufferResp{})
	if string(rd.Data) != "mint" {
		t.Fatalf("the minted buffer reads %q, want %q", rd.Data, "mint")
	}
}
