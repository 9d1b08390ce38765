package haocl_test

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	haocl "github.com/haocl-project/haocl"
)

const vecAddSource = `
// Simple element-wise addition used by the public-API smoke tests.
__kernel void vecadd(__global const float* a,
                     __global const float* b,
                     __global float* out,
                     const int n) {
    int i = get_global_id(0);
    if (i < n) out[i] = a[i] + b[i];
}
`

func vecAddRegistry(t *testing.T) *haocl.KernelRegistry {
	t.Helper()
	reg := haocl.NewKernelRegistry()
	reg.MustRegister(&haocl.KernelSpec{
		Name:    "vecadd",
		NumArgs: 4,
		Func: func(it *haocl.WorkItem, args []haocl.KernelArg) {
			i := it.GlobalID(0)
			n := args[3].Int()
			if i >= n {
				return
			}
			a, b, out := args[0].Float32s(), args[1].Float32s(), args[2].Float32s()
			out[i] = a[i] + b[i]
		},
		Cost: func(global [3]int, args []haocl.KernelArg) haocl.KernelCost {
			items := int64(global[0])
			return haocl.KernelCost{Flops: items, Bytes: items * 12}
		},
	})
	return reg
}

func floatsToBytes(fs []float32) []byte {
	out := make([]byte, 4*len(fs))
	for i, f := range fs {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(f))
	}
	return out
}

func bytesToFloats(bs []byte) []float32 {
	out := make([]float32, len(bs)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(bs[i*4:]))
	}
	return out
}

// TestPublicAPIVecAdd walks the full OpenCL-style flow on a two-GPU-node
// local cluster: context, queue, buffers, program build, kernel launch,
// read-back, profiling.
func TestPublicAPIVecAdd(t *testing.T) {
	lc, err := haocl.StartLocalCluster(haocl.LocalClusterSpec{
		UserID:      "tester",
		GPUNodes:    2,
		Kernels:     vecAddRegistry(t),
		ExecWorkers: 1,
	})
	if err != nil {
		t.Fatalf("StartLocalCluster: %v", err)
	}
	defer lc.Close()
	p := lc.Platform

	gpus := p.Devices(haocl.GPU)
	if len(gpus) != 2 {
		t.Fatalf("got %d GPUs, want 2", len(gpus))
	}
	ctx, err := p.CreateContext(gpus)
	if err != nil {
		t.Fatalf("CreateContext: %v", err)
	}
	prog, err := ctx.CreateProgram(vecAddSource)
	if err != nil {
		t.Fatalf("CreateProgram: %v", err)
	}
	if err := prog.Build(); err != nil {
		t.Fatalf("Build: %v\n%s", err, prog.BuildLog())
	}

	const n = 1024
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(i)
		b[i] = float32(2 * i)
	}

	// Split the work across both GPU nodes, as the paper's MatrixMul
	// heterogeneity experiment does with data portions (§IV-C).
	half := n / 2
	for gi, dev := range gpus {
		q, err := ctx.CreateQueue(dev)
		if err != nil {
			t.Fatalf("CreateQueue[%d]: %v", gi, err)
		}
		bufA, err := ctx.CreateBuffer(4 * int64(half))
		if err != nil {
			t.Fatalf("CreateBuffer: %v", err)
		}
		bufB, _ := ctx.CreateBuffer(4 * int64(half))
		bufOut, _ := ctx.CreateBuffer(4 * int64(half))

		lo := gi * half
		if _, err := q.EnqueueWrite(bufA, 0, floatsToBytes(a[lo:lo+half])); err != nil {
			t.Fatalf("EnqueueWrite A: %v", err)
		}
		if _, err := q.EnqueueWrite(bufB, 0, floatsToBytes(b[lo:lo+half])); err != nil {
			t.Fatalf("EnqueueWrite B: %v", err)
		}

		k, err := prog.CreateKernel("vecadd")
		if err != nil {
			t.Fatalf("CreateKernel: %v", err)
		}
		for i, v := range []any{bufA, bufB, bufOut, int32(half)} {
			if err := k.SetArg(i, v); err != nil {
				t.Fatalf("SetArg(%d): %v", i, err)
			}
		}
		ev, err := q.EnqueueKernel(k, []int{half}, nil, nil, nil)
		if err != nil {
			t.Fatalf("EnqueueKernel: %v", err)
		}
		if ev.Profile().End <= ev.Profile().Start {
			t.Errorf("kernel event has empty virtual interval: %+v", ev.Profile())
		}

		data, _, err := q.EnqueueRead(bufOut, 0, 4*int64(half))
		if err != nil {
			t.Fatalf("EnqueueRead: %v", err)
		}
		got := bytesToFloats(data)
		for i, v := range got {
			want := a[lo+i] + b[lo+i]
			if v != want {
				t.Fatalf("gpu %d element %d: got %v want %v", gi, i, v, want)
			}
		}
		if _, err := q.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
	}

	m := p.Metrics()
	if m.Transfer <= 0 {
		t.Errorf("expected network transfer time to be charged, got %v", m.Transfer)
	}
	if m.Compute() <= 0 {
		t.Errorf("expected compute time to be charged, got %v", m.Compute())
	}
	if m.Makespan <= 0 {
		t.Errorf("expected nonzero makespan")
	}
}

// TestPlatformHelpersShareOneSession: the Platform-level helpers all act on
// the one session Connect opened, which OpenSession tenants never touch,
// and Status reports the monitor's view of every device.
func TestPlatformHelpersShareOneSession(t *testing.T) {
	rr := haocl.RoundRobinPolicy()
	lc, err := haocl.StartLocalCluster(haocl.LocalClusterSpec{
		UserID:      "tester",
		GPUNodes:    2,
		CPUNodes:    1,
		Kernels:     vecAddRegistry(t),
		ExecWorkers: 1,
		Policy:      rr,
	})
	if err != nil {
		t.Fatalf("StartLocalCluster: %v", err)
	}
	defer lc.Close()
	p := lc.Platform
	devs := p.Devices(haocl.AnyDevice)

	c1, err := p.CreateContext(devs[:1])
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.CreateContext(devs[1:])
	if err != nil {
		t.Fatal(err)
	}
	sess := c1.Session()
	if c2.Session() != sess {
		t.Fatal("two Platform.CreateContext contexts live in different sessions")
	}
	if sess.Tenant() != "default" {
		t.Fatalf("platform session tenant = %q, want default", sess.Tenant())
	}

	p.ModelDataCreate(1 << 20)
	if got := sess.Metrics().DataCreate; got <= 0 {
		t.Fatalf("platform session DataCreate = %v after ModelDataCreate", got)
	}
	if got, want := p.Metrics().DataCreate, sess.Metrics().DataCreate; got != want {
		t.Fatalf("aggregate DataCreate = %v, want the platform session's %v", got, want)
	}

	tenant := p.OpenSession("tenant")
	defer tenant.Close()
	ll := haocl.LeastLoadedPolicy()
	tenant.SetPolicy(ll)
	if tenant.Policy() != ll {
		t.Fatal("tenant SetPolicy did not take")
	}
	if sess.Policy() != rr {
		t.Fatalf("tenant SetPolicy changed the platform session's policy to %T", sess.Policy())
	}

	if err := p.PollStatus(); err != nil {
		t.Fatal(err)
	}
	status := p.Status()
	if len(status) != len(devs) {
		t.Fatalf("Status has %d rows for %d devices", len(status), len(devs))
	}
	seen := map[haocl.DeviceKey]bool{}
	for _, row := range status {
		seen[row.Key] = true
	}
	for _, d := range devs {
		if !seen[d.Key()] {
			t.Fatalf("Status has no row for %s", d.Key())
		}
	}
}

// TestStartLocalClusterLeavesConfigUnchanged: StartLocalCluster fills in
// the user ID on its own copy of the caller's config, refuses an invalid
// config before it boots a node, and Connect refuses a nil one.
func TestStartLocalClusterLeavesConfigUnchanged(t *testing.T) {
	cfg := &haocl.ClusterConfig{Nodes: []haocl.NodeSpec{
		{Name: "gpu-a", Addr: "mem://gpu-a", Devices: []haocl.DeviceSpec{{Type: "gpu", Shared: true}}},
		{Name: "cpu-b", Addr: "mem://cpu-b", Devices: []haocl.DeviceSpec{{Type: "cpu"}}},
	}}
	want := &haocl.ClusterConfig{Nodes: []haocl.NodeSpec{
		{Name: "gpu-a", Addr: "mem://gpu-a", Devices: []haocl.DeviceSpec{{Type: "gpu", Shared: true}}},
		{Name: "cpu-b", Addr: "mem://cpu-b", Devices: []haocl.DeviceSpec{{Type: "cpu"}}},
	}}
	lc, err := haocl.StartLocalCluster(haocl.LocalClusterSpec{
		UserID: "tester", Config: cfg, Kernels: vecAddRegistry(t), ExecWorkers: 1,
	})
	if err != nil {
		t.Fatalf("StartLocalCluster: %v", err)
	}
	defer lc.Close()
	if got := len(lc.Platform.Devices(haocl.AnyDevice)); got != 2 {
		t.Fatalf("platform has %d devices, want 2", got)
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("StartLocalCluster changed the caller's config to %+v", cfg)
	}

	bad := &haocl.ClusterConfig{Nodes: []haocl.NodeSpec{
		{Name: "x", Addr: "mem://x", Devices: []haocl.DeviceSpec{{Type: "gpu"}}},
		{Name: "y", Addr: "mem://x", Devices: []haocl.DeviceSpec{{Type: "gpu"}}},
	}}
	if _, err := haocl.StartLocalCluster(haocl.LocalClusterSpec{Config: bad, Kernels: vecAddRegistry(t)}); err == nil ||
		!strings.Contains(err.Error(), "duplicate node address") {
		t.Fatalf("invalid config: err = %v, want a duplicate address", err)
	}
	if _, err := haocl.Connect(nil); err == nil || !strings.Contains(err.Error(), "nil cluster config") {
		t.Fatalf("Connect(nil): err = %v, want nil cluster config", err)
	}
}
