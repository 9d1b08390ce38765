package core_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/node"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/transport"
	"github.com/haocl-project/haocl/internal/vtime"
)

// startOneNodeRuntime builds a one-GPU-node cluster on an in-process
// network.
func startOneNodeRuntime(t *testing.T) (*core.Runtime, func()) {
	t.Helper()
	cfg := cluster.Synthetic("batch-test", 0, 1, 0, nil)
	icd := device.NewICD()
	sim.RegisterDrivers(icd, testRegistry())
	net := transport.NewMemNetwork()
	var servers []*transport.Server
	for _, ns := range cfg.Nodes {
		devCfgs, err := ns.DeviceConfigs()
		if err != nil {
			t.Fatal(err)
		}
		n, err := node.New(node.Options{
			Name: ns.Name, Devices: devCfgs, ICD: icd, ExecWorkers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := n.Serve()
		if err := net.Register(ns.Addr, srv); err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
	}
	rt, err := core.Connect(core.Options{Config: cfg, Dialer: net, ClientName: "batch-test"})
	if err != nil {
		t.Fatal(err)
	}
	return rt, func() {
		rt.Close()
		for _, s := range servers {
			s.Close()
		}
	}
}

// runIncrBurst pushes a pipelined burst of dependent incr launches through
// one queue and returns the functional result and the virtual makespan.
func runIncrBurst(t *testing.T, rt *core.Runtime) ([]float32, vtime.Time) {
	t.Helper()
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
	q, err := ctx.CreateQueue(rt.Devices(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWrite(buf, 0, mem.F32Bytes([]float32{1, 2, 3, 4})); err != nil {
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
	// The burst streams out without any synchronization: exactly the
	// command shape the coalescer packs into envelopes.
	const launches = 50
	for i := 0; i < launches; i++ {
		if _, err := q.EnqueueKernel(k, []int{4}, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	data, _, err := q.EnqueueRead(buf, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	return mem.BytesF32(data), rt.Metrics().Makespan
}

// TestBatchingNegotiatedByDefault checks the command path end to end:
// there is nothing to negotiate, the host's client coalesces from its
// first frame, and a pipelined burst computes correctly.
func TestBatchingNegotiatedByDefault(t *testing.T) {
	rt, cleanup := startOneNodeRuntime(t)
	defer cleanup()
	got, makespan := runIncrBurst(t, rt)
	want := []float32{51, 52, 53, 54}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
	if makespan <= 0 {
		t.Fatal("no virtual makespan")
	}
}

// TestConnectRefusedByOtherVersionNode: a node speaking another wire
// version refuses the host's Hello, and Connect reports that refusal as
// it is after exactly one Hello — no second offer at an older version.
func TestConnectRefusedByOtherVersionNode(t *testing.T) {
	cfg := cluster.Synthetic("version-test", 0, 1, 0, nil)
	net := transport.NewMemNetwork()
	var hellos atomic.Int64
	srv := transport.NewStaticServer(transport.HandlerFunc(func(op protocol.Op, body []byte) (protocol.Message, error) {
		var req protocol.HelloReq
		if err := protocol.DecodeMessage(&req, body); err != nil {
			return nil, err
		}
		hellos.Add(1)
		return nil, &protocol.RemoteError{Code: protocol.CodeUnsupported,
			Message: fmt.Sprintf("wire version %d unsupported: node speaks version %d", req.WireVersion, protocol.Version+1)}
	}))
	defer srv.Close()
	if err := net.Register(cfg.Nodes[0].Addr, srv); err != nil {
		t.Fatal(err)
	}
	rt, err := core.Connect(core.Options{Config: cfg, Dialer: net, ClientName: "version-test"})
	if err == nil {
		rt.Close()
		t.Fatal("connected to a node of another wire version")
	}
	var re *protocol.RemoteError
	if !errors.As(err, &re) || re.Code != protocol.CodeUnsupported {
		t.Fatalf("err = %v, want the node's CodeUnsupported refusal", err)
	}
	if n := hellos.Load(); n != 1 {
		t.Fatalf("node saw %d Hellos, want 1", n)
	}
}
