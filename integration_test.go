package haocl_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	haocl "github.com/haocl-project/haocl"
	"github.com/haocl-project/haocl/internal/apps"
	"github.com/haocl-project/haocl/internal/apps/matmul"
	"github.com/haocl-project/haocl/internal/cluster/inproc"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/protocol"
)

// startTCPNodes brings up real Node Management Processes listening on
// loopback TCP sockets — the deployment shape of cmd/haocl-node — one per
// device spec, and returns a cluster config pointing at them.
func startTCPNodes(t *testing.T, reg *haocl.KernelRegistry, specs []haocl.DeviceSpec) *haocl.ClusterConfig {
	t.Helper()
	cfg := &haocl.ClusterConfig{UserID: "tcp-test"}
	for i, spec := range specs {
		cfg.Nodes = append(cfg.Nodes, haocl.NodeSpec{Name: fmt.Sprintf("tcp-node-%d", i), Devices: []haocl.DeviceSpec{spec}})
	}
	nodes, err := inproc.Serve(cfg, reg, inproc.Options{TCP: true, ExecWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nodes.Close() })
	return nodes.Config
}

func matmulRegistry() *haocl.KernelRegistry {
	reg := haocl.NewKernelRegistry()
	matmul.RegisterKernels(reg)
	return reg
}

// TestDistributedTCPMatMul runs the MatrixMul benchmark against real NMPs
// over TCP sockets: host program, wrapper library, backbone, node daemons
// and simulated devices, exactly as a multi-machine deployment would.
func TestDistributedTCPMatMul(t *testing.T) {
	cfg := startTCPNodes(t, matmulRegistry(), []haocl.DeviceSpec{
		{Type: "gpu", Shared: true},
		{Type: "gpu", Shared: true},
		{Type: "fpga", Shared: true, Bitstreams: apps.Bitstreams()},
	})
	p, err := haocl.Connect(cfg, haocl.WithClientName("tcp-integration"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if got := len(p.Devices(haocl.AnyDevice)); got != 3 {
		t.Fatalf("devices = %d, want 3", got)
	}
	res, err := matmul.Run(p, matmul.Config{
		LogicalN: 2000,
		FuncN:    36,
		Devices:  p.Devices(haocl.AnyDevice),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("TCP run not verified")
	}
	if res.Devices != 3 || res.Compute <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

// TestMultiUserExclusiveDeviceOverTCP checks the NMP's shared-flag
// enforcement across two independent host connections.
func TestMultiUserExclusiveDeviceOverTCP(t *testing.T) {
	cfg := startTCPNodes(t, matmulRegistry(), []haocl.DeviceSpec{
		{Type: "gpu", Shared: false},
	})

	cfgAlice := *cfg
	cfgAlice.UserID = "alice"
	alice, err := haocl.Connect(&cfgAlice)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()

	cfgBob := *cfg
	cfgBob.UserID = "bob"
	bob, err := haocl.Connect(&cfgBob)
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()

	ctxA, err := alice.CreateContext(alice.Devices(haocl.GPU))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctxA.CreateQueue(alice.Devices(haocl.GPU)[0]); err != nil {
		t.Fatal(err)
	}

	ctxB, err := bob.CreateContext(bob.Devices(haocl.GPU))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ctxB.CreateQueue(bob.Devices(haocl.GPU)[0])
	var re *protocol.RemoteError
	if !errors.As(err, &re) || re.Code != protocol.CodeDeviceBusy {
		t.Fatalf("bob's queue on alice's exclusive device: err = %v", err)
	}

	// Alice disconnecting frees the device for Bob.
	alice.Close()
	// The node frees the device when it notices the closed connection, on
	// its own goroutine: poll on the clock, not on a retry count a loaded
	// machine can burn through before that goroutine is scheduled.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if _, err = ctxB.CreateQueue(bob.Devices(haocl.GPU)[0]); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("device never freed after alice disconnected: %v", err)
	}
}

// TestFPGABitstreamEnforcementEndToEnd builds a program containing a
// kernel the FPGA was not synthesized with: the build must fail with the
// node's build log naming the problem.
func TestFPGABitstreamEnforcementEndToEnd(t *testing.T) {
	reg := haocl.NewKernelRegistry()
	matmul.RegisterKernels(reg)
	reg.MustRegister(&haocl.KernelSpec{
		Name: "exotic", NumArgs: 1,
		Func: func(it *haocl.WorkItem, args []haocl.KernelArg) {},
	})
	cfg := startTCPNodes(t, reg, []haocl.DeviceSpec{
		{Type: "fpga", Shared: true, Bitstreams: []string{"matmul"}},
	})
	p, err := haocl.Connect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, err := p.CreateContext(p.Devices(haocl.FPGA))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgram(`__kernel void exotic(__global float* x) { }`)
	if err != nil {
		t.Fatal(err)
	}
	err = prog.Build()
	var re *protocol.RemoteError
	if !errors.As(err, &re) || re.Code != protocol.CodeBuildFailed {
		t.Fatalf("build on FPGA without bitstream: %v", err)
	}
}

// TestKernelRegistryExposedTypes sanity-checks the public alias surface.
func TestKernelRegistryExposedTypes(t *testing.T) {
	reg := haocl.NewKernelRegistry()
	spec := &haocl.KernelSpec{
		Name: "alias-check", NumArgs: 1,
		Func: func(it *haocl.WorkItem, args []haocl.KernelArg) {
			args[0].Float32s()[it.GlobalID(0)] = 1
		},
		Cost: func(g [3]int, _ []haocl.KernelArg) haocl.KernelCost {
			return haocl.KernelCost{Flops: int64(g[0])}
		},
	}
	if err := reg.Register(spec); err != nil {
		t.Fatal(err)
	}
	buf := haocl.BufferArg(make([]byte, 8))
	if err := kernel.Run(spec, kernel.Launch{Global: []int{2}, Args: []kernel.Arg{buf}}); err != nil {
		t.Fatal(err)
	}
	if buf.Float32s()[1] != 1 {
		t.Fatal("alias-typed kernel did not run")
	}
}

func TestConnectValidatesConfig(t *testing.T) {
	if _, err := haocl.Connect(nil); err == nil {
		t.Fatal("nil config accepted")
	}
	if _, err := haocl.Connect(&haocl.ClusterConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	_, err := haocl.Connect(&haocl.ClusterConfig{Nodes: []haocl.NodeSpec{
		{Name: "n", Addr: "127.0.0.1:1", Devices: []haocl.DeviceSpec{{Type: "warp-drive"}}},
	}})
	if err == nil {
		t.Fatal("bad device type accepted")
	}
}

func TestLocalClusterExplicitTopology(t *testing.T) {
	lc, err := haocl.StartLocalCluster(haocl.LocalClusterSpec{
		Kernels: matmulRegistry(),
		Config: &haocl.ClusterConfig{
			UserID: "topo",
			Nodes: []haocl.NodeSpec{
				{Name: "fat-node", Addr: "mem://fat", Devices: []haocl.DeviceSpec{
					{Type: "cpu", Shared: true},
					{Type: "gpu", Shared: true},
					{Type: "gpu", Shared: true},
				}},
			},
		},
		ExecWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if got := len(lc.Platform.Devices(haocl.GPU)); got != 2 {
		t.Fatalf("GPUs = %d, want 2", got)
	}
	if got := len(lc.Platform.Devices(haocl.CPU)); got != 1 {
		t.Fatalf("CPUs = %d, want 1", got)
	}
	// Multi-device single-node context works.
	res, err := matmul.Run(lc.Platform, matmul.Config{
		LogicalN: 1000, FuncN: 24,
		Devices: lc.Platform.Devices(haocl.AnyDevice),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("not verified")
	}
}

func TestLocalClusterRequiresKernels(t *testing.T) {
	if _, err := haocl.StartLocalCluster(haocl.LocalClusterSpec{GPUNodes: 1}); err == nil {
		t.Fatal("local cluster without kernels accepted")
	}
}

func TestLoadClusterConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/cluster.json"
	raw := `{"user":"u","nodes":[{"name":"a","addr":"1.2.3.4:7010","devices":[{"type":"gpu"}]}]}`
	if err := writeFile(path, raw); err != nil {
		t.Fatal(err)
	}
	cfg, err := haocl.LoadClusterConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.UserID != "u" || len(cfg.Nodes) != 1 || cfg.Nodes[0].Devices[0].Type != "gpu" {
		t.Fatalf("cfg = %+v", cfg)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

const reductionSource = `
// Work-group sum reduction with barriers and local memory.
__kernel void wg_reduce(__global const float* in,
                        __global float* partials,
                        __local float* scratch) {
    int lid = get_local_id(0);
    scratch[lid] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int stride = get_local_size(0) / 2; stride > 0; stride /= 2) {
        if (lid < stride) scratch[lid] += scratch[lid + stride];
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    if (lid == 0) partials[get_group_id(0)] = scratch[0];
}
`

// TestBarrierKernelThroughFullStack runs a work-group reduction — local
// memory, barriers, multi-group NDRange — through the public API, the
// backbone and an NMP, verifying OpenCL work-group semantics end to end.
func TestBarrierKernelThroughFullStack(t *testing.T) {
	reg := haocl.NewKernelRegistry()
	reg.MustRegister(&haocl.KernelSpec{
		Name:        "wg_reduce",
		NumArgs:     3,
		UsesBarrier: true,
		Func: func(it *haocl.WorkItem, args []haocl.KernelArg) {
			scratch := args[2].Float32s()
			lid := it.LocalID(0)
			scratch[lid] = args[0].Float32s()[it.GlobalID(0)]
			it.Barrier()
			for stride := it.LocalSize(0) / 2; stride > 0; stride /= 2 {
				if lid < stride {
					scratch[lid] += scratch[lid+stride]
				}
				it.Barrier()
			}
			if lid == 0 {
				args[1].Float32s()[it.GroupID(0)] = scratch[0]
			}
		},
	})
	lc, err := haocl.StartLocalCluster(haocl.LocalClusterSpec{
		UserID: "barrier-test", GPUNodes: 1, Kernels: reg, ExecWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	p := lc.Platform

	ctx, err := p.CreateContext(p.Devices(haocl.GPU))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgram(reductionSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(p.Devices(haocl.GPU)[0])
	if err != nil {
		t.Fatal(err)
	}

	const groups, local = 8, 64
	in := make([]float32, groups*local)
	var want [groups]float32
	for i := range in {
		in[i] = float32(i % 10)
		want[i/local] += in[i]
	}
	bufIn, _ := ctx.CreateBuffer(4 * groups * local)
	bufOut, _ := ctx.CreateBuffer(4 * groups)
	if _, err := q.EnqueueWrite(bufIn, 0, memF32(in)); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("wg_reduce")
	if err != nil {
		t.Fatal(err)
	}
	k.SetArg(0, bufIn)
	k.SetArg(1, bufOut)
	if err := k.SetArg(2, haocl.LocalSpace(4*local)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueKernel(k, []int{groups * local}, []int{local}, nil, nil); err != nil {
		t.Fatal(err)
	}
	data, _, err := q.EnqueueRead(bufOut, 0, 4*groups)
	if err != nil {
		t.Fatal(err)
	}
	got := memBytesF32(data)
	for g := range want {
		if got[g] != want[g] {
			t.Fatalf("group %d sum = %v, want %v", g, got[g], want[g])
		}
	}
}

// TestNodeDeathMidRun kills one node's server, then checks that the runtime
// recovers: commands aimed at the dead node are re-placed on the survivor
// transparently, and the rest of the cluster keeps working.
func TestNodeDeathMidRun(t *testing.T) {
	nodes, err := inproc.Serve(&haocl.ClusterConfig{
		UserID: "failover",
		Nodes: []haocl.NodeSpec{
			{Name: "victim", Devices: []haocl.DeviceSpec{{Type: "gpu", Shared: true}}},
			{Name: "survivor", Devices: []haocl.DeviceSpec{{Type: "gpu", Shared: true}}},
		},
	}, matmulRegistry(), inproc.Options{TCP: true, ExecWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nodes.Close()
	p, err := haocl.Connect(nodes.Config)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, err := p.CreateContext(p.Devices(haocl.GPU))
	if err != nil {
		t.Fatal(err)
	}
	var victimDev, survivorDev *haocl.Device
	for _, d := range p.Devices(haocl.GPU) {
		if d.Key().Node == "victim" {
			victimDev = d
		} else {
			survivorDev = d
		}
	}
	qVictim, err := ctx.CreateQueue(victimDev)
	if err != nil {
		t.Fatal(err)
	}
	qSurvivor, err := ctx.CreateQueue(survivorDev)
	if err != nil {
		t.Fatal(err)
	}

	nodes.Kill("victim") // the node dies

	// The victim's queue stays usable: recovery re-binds it to the
	// survivor and replays, so the write lands there instead of failing.
	buf, _ := ctx.CreateBuffer(16)
	payload := memF32([]float32{5, 6, 7, 8})
	if _, err := qVictim.EnqueueWrite(buf, 0, payload); err != nil {
		t.Fatalf("write after node death not re-placed: %v", err)
	}
	buf2, _ := ctx.CreateBuffer(16)
	if _, err := qSurvivor.EnqueueWrite(buf2, 0, make([]byte, 16)); err != nil {
		t.Fatalf("surviving node unusable: %v", err)
	}
	data, _, err := qSurvivor.EnqueueRead(buf, 0, 16)
	if err != nil {
		t.Fatalf("read of re-placed buffer: %v", err)
	}
	if got := memBytesF32(data); got[0] != 5 || got[3] != 8 {
		t.Fatalf("re-placed write lost data: %v", got)
	}
	if p.Metrics().Recoveries == 0 {
		t.Fatal("node death triggered no recovery")
	}
}

func memF32(fs []float32) []byte {
	out := make([]byte, 4*len(fs))
	for i, f := range fs {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(f))
	}
	return out
}

func memBytesF32(bs []byte) []float32 {
	out := make([]float32, len(bs)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(bs[i*4:]))
	}
	return out
}
