package core_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/node"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/sched"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/transport"
)

const incrSource = `
__kernel void incr(__global float* x, const int n) {
    int i = get_global_id(0);
    if (i < n) x[i] += 1.0f;
}

__kernel void scale2(__global const float* in, __global float* out, const int n) {
    int i = get_global_id(0);
    if (i < n) out[i] = in[i] * 2.0f;
}
`

func testRegistry() *kernel.Registry {
	reg := kernel.NewRegistry()
	reg.MustRegister(&kernel.Spec{
		Name: "incr", NumArgs: 2,
		Func: func(it *kernel.Item, args []kernel.Arg) {
			i := it.GlobalID(0)
			if i < args[1].Int() {
				args[0].Float32s()[i]++
			}
		},
	})
	reg.MustRegister(&kernel.Spec{
		Name: "scale2", NumArgs: 3,
		Func: func(it *kernel.Item, args []kernel.Arg) {
			i := it.GlobalID(0)
			if i < args[2].Int() {
				args[1].Float32s()[i] = args[0].Float32s()[i] * 2
			}
		},
	})
	return reg
}

// startRuntime builds an in-process cluster and connects a runtime.
func startRuntime(t testing.TB, gpuNodes int) (*core.Runtime, func()) {
	t.Helper()
	cfg := cluster.Synthetic("core-test", 0, gpuNodes, 0, nil)
	icd := device.NewICD()
	sim.RegisterDrivers(icd, testRegistry())
	net := transport.NewMemNetwork()
	var servers []*transport.Server
	for _, ns := range cfg.Nodes {
		devCfgs, err := ns.DeviceConfigs()
		if err != nil {
			t.Fatal(err)
		}
		n, err := node.New(node.Options{Name: ns.Name, Devices: devCfgs, ICD: icd, ExecWorkers: 1, Dialer: net})
		if err != nil {
			t.Fatal(err)
		}
		srv := n.Serve()
		if err := net.Register(ns.Addr, srv); err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
	}
	rt, err := core.Connect(core.Options{Config: cfg, Dialer: net, ClientName: "core-test"})
	if err != nil {
		t.Fatal(err)
	}
	cleanup := func() {
		rt.Close()
		for _, s := range servers {
			s.Close()
		}
	}
	return rt, cleanup
}

func TestConnectValidation(t *testing.T) {
	if _, err := core.Connect(core.Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
	cfg := cluster.Synthetic("u", 0, 1, 0, nil)
	net := transport.NewMemNetwork() // nothing registered
	if _, err := core.Connect(core.Options{Config: cfg, Dialer: net}); err == nil {
		t.Fatal("connect to unbound cluster succeeded")
	}
}

// TestBufferCoherenceAcrossNodes writes on node A, launches a kernel that
// mutates the buffer on A, then reads it through node B's queue: the
// runtime must migrate the dirty replica via the host.
func TestBufferCoherenceAcrossNodes(t *testing.T) {
	rt, cleanup := startRuntime(t, 2)
	defer cleanup()

	devs := rt.Devices(protocol.DeviceGPU)
	if len(devs) != 2 {
		t.Fatalf("devices = %d", len(devs))
	}
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgram(incrSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}

	qA, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	qB, err := ctx.CreateQueue(devs[1])
	if err != nil {
		t.Fatal(err)
	}

	buf, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qA.EnqueueWrite(buf, 0, mem.F32Bytes([]float32{10, 20, 30, 40})); err != nil {
		t.Fatal(err)
	}

	k, err := prog.CreateKernel("incr")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, int32(4)); err != nil {
		t.Fatal(err)
	}
	ev, err := qA.EnqueueKernel(k, []int{4}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.End() <= 0 {
		t.Fatal("no virtual completion time")
	}

	// Read through node B: requires migration A -> host -> B.
	data, _, err := qB.EnqueueRead(buf, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	got := mem.BytesF32(data)
	want := []float32{11, 21, 31, 41}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %v, want %v (migration broke coherence)", i, got[i], want[i])
		}
	}
}

// TestWrittenBufferInvalidatesReplicas runs the same kernel on two nodes
// against a shared input: the second launch must see the original input,
// not the first launch's output, while a read-after-both sees node B's.
func TestKernelOrderingViaWaits(t *testing.T) {
	rt, cleanup := startRuntime(t, 1)
	defer cleanup()
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgram(incrSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(8)
	if err != nil {
		t.Fatal(err)
	}
	wev, err := q.EnqueueWrite(buf, 0, mem.F32Bytes([]float32{0, 0}))
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("incr")
	if err != nil {
		t.Fatal(err)
	}
	k.SetArg(0, buf)
	k.SetArg(1, int32(2))
	var last *core.Event
	for i := 0; i < 5; i++ {
		ev, err := q.EnqueueKernel(k, []int{2}, nil, []*core.Event{wev}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if last != nil && ev.Profile().Start < last.Profile().End {
			t.Fatalf("launch %d overlapped predecessor: %+v vs %+v", i, ev.Profile(), last.Profile())
		}
		last = ev
	}
	data, _, err := q.EnqueueRead(buf, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.BytesF32(data); got[0] != 5 || got[1] != 5 {
		t.Fatalf("after 5 incr: %v", got)
	}
}

func TestBroadcastChainTiming(t *testing.T) {
	rt, cleanup := startRuntime(t, 4)
	defer cleanup()
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	queues := make([]*core.Queue, len(devs))
	for i, d := range devs {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			t.Fatal(err)
		}
		queues[i] = q
	}
	buf, err := ctx.CreateBuffer(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	buf.SetModelSize(256 << 20)
	data := make([]byte, 1<<20)
	data[12345] = 0xAB
	events, err := ctx.Broadcast(buf, data, queues)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("events = %d", len(events))
	}
	// Hops complete in chain order, each later than the one before.
	for i := 1; i < len(events); i++ {
		if events[i].End() <= events[i-1].End() {
			t.Fatalf("hop %d completed at %v, not after hop %d at %v",
				i, events[i].End(), i-1, events[i-1].End())
		}
	}
	// And far faster than star distribution: total span << 4 full sends.
	fullSend := float64(256<<20) / sim.GigabitBytesPerSec // seconds per full copy
	span := events[3].End().Seconds() - events[0].End().Seconds()
	if span > 3*fullSend/2 {
		t.Fatalf("chain span %.3fs looks like star distribution (full send %.3fs)", span, fullSend)
	}
	// Functionally every node received the payload.
	for _, q := range queues {
		out, _, err := q.EnqueueRead(buf, 12340, 10)
		if err != nil {
			t.Fatal(err)
		}
		if out[5] != 0xAB {
			t.Fatalf("node %s missing broadcast payload", q.Device().Key())
		}
	}
}

func TestBroadcastValidation(t *testing.T) {
	rt, cleanup := startRuntime(t, 1)
	defer cleanup()
	ctx, err := rt.OpenSession("default").CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Broadcast(buf, make([]byte, 16), nil); err == nil {
		t.Fatal("broadcast without queues accepted")
	}
	q, err := ctx.CreateQueue(rt.Devices(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Broadcast(buf, make([]byte, 8), []*core.Queue{q}); err == nil {
		t.Fatal("partial broadcast accepted")
	}
}

func TestTaskGraphDependenciesAndScheduling(t *testing.T) {
	rt, cleanup := startRuntime(t, 3)
	defer cleanup()
	ctx, err := rt.OpenSession("default").CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgram(incrSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}

	a, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	// Producer: a += 1 (twice); consumer: b = 2a; final: c = 2b.
	k1, _ := prog.CreateKernel("incr")
	k1.SetArg(0, a)
	k1.SetArg(1, int32(4))
	k2, _ := prog.CreateKernel("scale2")
	k2.SetArg(0, a)
	k2.SetArg(1, b)
	k2.SetArg(2, int32(4))
	k3, _ := prog.CreateKernel("scale2")
	k3.SetArg(0, b)
	k3.SetArg(1, c)
	k3.SetArg(2, int32(4))

	g := ctx.NewTaskGraph()
	t1 := g.Add("incr-a", k1, []int{4}, nil, nil)
	t2 := g.Add("scale-ab", k2, []int{4}, nil, nil, t1)
	t3 := g.Add("scale-bc", k3, []int{4}, nil, nil, t2)
	if err := g.Run(sched.LeastLoaded{}); err != nil {
		t.Fatal(err)
	}
	for _, task := range []*core.GraphTask{t1, t2, t3} {
		if task.AssignedDevice() == nil || task.Event() == nil {
			t.Fatalf("task %s not executed", task.Label())
		}
	}
	// Dependency order in virtual time.
	if t2.Event().Profile().Start < t1.Event().Profile().End ||
		t3.Event().Profile().Start < t2.Event().Profile().End {
		t.Fatal("graph dependencies violated in virtual time")
	}
	if g.Makespan() != t3.Event().End() {
		t.Fatalf("makespan %v != last task end %v", g.Makespan(), t3.Event().End())
	}

	// Functional result: a=1, b=2, c=4.
	q, err := ctx.CreateQueue(t3.AssignedDevice())
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := q.EnqueueRead(c, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.BytesF32(data); got[0] != 4 {
		t.Fatalf("c[0] = %v, want 4", got[0])
	}
}

func TestTaskGraphForeignDependencyRejected(t *testing.T) {
	rt, cleanup := startRuntime(t, 1)
	defer cleanup()
	ctx, err := rt.OpenSession("default").CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgram(incrSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	buf, _ := ctx.CreateBuffer(16)
	k, _ := prog.CreateKernel("incr")
	k.SetArg(0, buf)
	k.SetArg(1, int32(4))

	other := ctx.NewTaskGraph()
	foreign := other.Add("foreign", k, []int{4}, nil, nil)

	g := ctx.NewTaskGraph()
	g.Add("depends-on-foreign", k, []int{4}, nil, nil, foreign)
	err = g.Run(nil)
	if err == nil || !strings.Contains(err.Error(), "outside this graph") {
		t.Fatalf("err = %v, want foreign-dependency rejection", err)
	}
}

func TestSetArgValidation(t *testing.T) {
	rt, cleanup := startRuntime(t, 1)
	defer cleanup()
	ctx, err := rt.OpenSession("default").CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgram(incrSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("incr")
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := ctx.CreateBuffer(16)
	if err := k.SetArg(5, buf); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := k.SetArg(1, buf); err == nil {
		t.Fatal("buffer bound to scalar parameter")
	}
	if err := k.SetArg(0, int32(3)); err == nil {
		t.Fatal("scalar bound to pointer parameter")
	}
	if err := k.SetArg(1, int64(3)); err == nil {
		t.Fatal("8-byte scalar bound to int parameter")
	}
	if err := k.SetArg(0, core.LocalSpace(64)); err == nil {
		t.Fatal("local memory bound to global parameter")
	}
	// Launch with an unset argument fails.
	q, _ := ctx.CreateQueue(rt.Devices(0)[0])
	k2, _ := prog.CreateKernel("incr")
	k2.SetArg(1, int32(4))
	if _, err := q.EnqueueKernel(k2, []int{4}, nil, nil, nil); err == nil {
		t.Fatal("launch with unset args accepted")
	}
	// CreateKernel before build / unknown kernel.
	if _, err := prog.CreateKernel("missing"); err == nil {
		t.Fatal("unknown kernel created")
	}
	prog2, err := ctx.CreateProgram(incrSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog2.CreateKernel("incr"); err == nil {
		t.Fatal("kernel created before build")
	}
}

func TestMetricsAccumulate(t *testing.T) {
	rt, cleanup := startRuntime(t, 2)
	defer cleanup()
	sess := rt.OpenSession("default")
	ctx, err := sess.CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	sess.ModelDataCreate(1 << 20)
	m := rt.Metrics()
	if m.DataCreate <= 0 {
		t.Fatal("data create not charged")
	}
	q, err := ctx.CreateQueue(rt.Devices(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := ctx.CreateBuffer(1 << 16)
	if _, err := q.EnqueueWrite(buf, 0, make([]byte, 1<<16)); err != nil {
		t.Fatal(err)
	}
	m = rt.Metrics()
	if m.Transfer <= 0 || m.Makespan <= 0 || m.Commands == 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.TotalCompute() != 0 {
		t.Fatal("compute charged for transfers")
	}
	if err := rt.PollStatus(); err != nil {
		t.Fatal(err)
	}
	if energy, err := rt.TotalEnergy(); err != nil || energy <= 0 {
		t.Fatalf("energy = %v, %v", energy, err)
	}
}

func TestReleaseQueue(t *testing.T) {
	rt, cleanup := startRuntime(t, 1)
	defer cleanup()
	ctx, err := rt.OpenSession("default").CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(rt.Devices(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Release(); err != nil {
		t.Fatal(err)
	}
	var re *protocol.RemoteError
	if _, err := q.Finish(); !errors.As(err, &re) {
		t.Fatalf("finish on released queue: %v", err)
	}
}

func TestEnqueueCopy(t *testing.T) {
	rt, cleanup := startRuntime(t, 1)
	defer cleanup()
	ctx, err := rt.OpenSession("default").CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(rt.Devices(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	src, _ := ctx.CreateBuffer(32)
	dst, _ := ctx.CreateBuffer(32)
	if _, err := q.EnqueueWrite(src, 0, mem.F32Bytes([]float32{1, 2, 3, 4, 5, 6, 7, 8})); err != nil {
		t.Fatal(err)
	}
	ev, err := q.EnqueueCopy(src, dst, 8, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ev.End() <= 0 {
		t.Fatal("no completion time")
	}
	data, _, err := q.EnqueueRead(dst, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.BytesF32(data); got[0] != 3 || got[3] != 6 {
		t.Fatalf("copied %v, want [3 4 5 6]", got)
	}
	if _, err := q.EnqueueCopy(src, dst, 0, 0, 99); err == nil {
		t.Fatal("out-of-bounds copy accepted")
	}
	if _, err := q.EnqueueCopy(src, src, 0, 16, 8); err == nil {
		t.Fatal("same-buffer copy accepted")
	}
}

// TestOppositeCopiesDoNotDeadlock: a copy holds both buffers' locks, so two
// goroutines copying A→B and B→A at once deadlock unless every copy takes
// the two locks in one order.
func TestOppositeCopiesDoNotDeadlock(t *testing.T) {
	rt, cleanup := startRuntime(t, 1)
	defer cleanup()
	dev := rt.Devices(0)[0]
	ctx, err := rt.OpenSession("default").CreateContext([]*core.DeviceRef{dev})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ctx.CreateBuffer(64)
	b, _ := ctx.CreateBuffer(64)
	var queues [2]*core.Queue
	for i := range queues {
		if queues[i], err = ctx.CreateQueue(dev); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := queues[0].EnqueueWrite(a, 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := queues[0].EnqueueWrite(b, 0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	const copies = 500
	errs := make(chan error, 2)
	for i, pair := range [2][2]*core.Buffer{{a, b}, {b, a}} {
		go func(q *core.Queue, src, dst *core.Buffer) {
			for n := 0; n < copies; n++ {
				if _, err := q.EnqueueCopy(src, dst, 0, 0, 64); err != nil {
					errs <- err
					return
				}
			}
			_, err := q.Finish()
			errs <- err
		}(queues[i], pair[0], pair[1])
	}
	deadline := time.After(30 * time.Second)
	for range queues {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("opposite copies did not finish: the buffer locks deadlocked")
		}
	}
}

func TestEventRelease(t *testing.T) {
	rt, cleanup := startRuntime(t, 1)
	defer cleanup()
	ctx, err := rt.OpenSession("default").CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(rt.Devices(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := ctx.CreateBuffer(16)
	ev, err := q.EnqueueWrite(buf, 0, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Release(rt); err != nil {
		t.Fatal(err)
	}
	if err := rt.Flush(); err != nil {
		t.Fatalf("first release failed: %v", err)
	}
	// Double release fails like any unknown object; releases are
	// fire-and-forget, so the failure surfaces at the next Flush as the
	// runtime's sticky release error.
	if err := ev.Release(rt); err != nil {
		t.Fatal(err)
	}
	var re *protocol.RemoteError
	if err := rt.Flush(); !errors.As(err, &re) || re.Code != protocol.CodeUnknownObject {
		t.Fatalf("double release error = %v, want unknown-object", err)
	}
	// The sticky release error keeps being reported.
	if err := rt.Flush(); err == nil {
		t.Fatal("sticky release error forgotten")
	}
}

func TestShutdownCluster(t *testing.T) {
	rt, cleanup := startRuntime(t, 2)
	defer cleanup()
	if err := rt.ShutdownCluster(); err != nil {
		t.Fatal(err)
	}
	// The runtime is unusable afterwards.
	if _, err := rt.OpenSession("default").CreateContext(rt.Devices(0)); err == nil {
		t.Fatal("context created after shutdown")
	}
}
