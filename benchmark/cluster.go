package main

import (
	"fmt"

	"github.com/haocl-project/haocl/internal/apps/matmul"
	clusterpkg "github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/node"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/transport"
)

// incrSource is the one kernel the benchmark adds to the paper's: it bumps
// the first n words of a buffer, so a job's or a replay's effect on the
// contents is checkable against a host mirror whatever the payload bits.
const incrSource = `
__kernel void bench_incr(__global uint* x, const int n) {
    int i = get_global_id(0);
    if (i < n) x[i] += 1;
}
`

// incrWords is the NDRange of every bench_incr launch.
const incrWords = 64

func benchRegistry() *kernel.Registry {
	reg := kernel.NewRegistry()
	matmul.RegisterKernels(reg)
	reg.MustRegister(&kernel.Spec{
		Name: "bench_incr", NumArgs: 2,
		Func: func(it *kernel.Item, args []kernel.Arg) {
			if i := it.GlobalID(0); i < args[1].Int() {
				args[0].Uint32s()[i]++
			}
		},
	})
	return reg
}

// testCluster is host and nodes in one process: real node.Node values
// served either on loopback TCP (127.0.0.1:0, the host's loopback
// interface, not a real link) or on a transport.MemNetwork, where a node
// can be killed and restarted at the same address.
type testCluster struct {
	cfg     *clusterpkg.Config
	reg     *kernel.Registry
	net     *transport.MemNetwork // nil on TCP
	servers map[string]*transport.Server
	traces  map[string]*nodeTrace
	rt      *core.Runtime
}

// startCluster boots nodes × gpus GPU devices and connects a runtime. With
// a tracer, the three node-side and connection boundaries are wrapped.
func startCluster(user string, nodes, gpus int, tcp bool, tr *tracer) (*testCluster, error) {
	tc := &testCluster{
		cfg:     &clusterpkg.Config{UserID: user},
		reg:     benchRegistry(),
		servers: make(map[string]*transport.Server),
		traces:  make(map[string]*nodeTrace),
	}
	if !tcp {
		tc.net = transport.NewMemNetwork()
	}
	for i := 0; i < nodes; i++ {
		spec := clusterpkg.NodeSpec{Name: fmt.Sprintf("gpu-%02d", i), Addr: fmt.Sprintf("mem://gpu-%02d", i)}
		for d := 0; d < gpus; d++ {
			spec.Devices = append(spec.Devices, clusterpkg.DeviceSpec{Type: "gpu", Shared: true})
		}
		tc.cfg.Nodes = append(tc.cfg.Nodes, spec)
		if tr != nil {
			tc.traces[spec.Name] = newNodeTrace(tr, uint8(i))
		}
	}
	for i := range tc.cfg.Nodes {
		if err := tc.boot(i); err != nil {
			tc.close()
			return nil, err
		}
	}
	var dialer transport.Dialer = transport.TCPDialer{}
	switch {
	case !tcp:
		dialer = tc.net
	case tr != nil:
		dialer = &tracedDialer{t: tr}
	}
	rt, err := core.Connect(core.Options{Config: tc.cfg, Dialer: dialer, ClientName: "haocl-benchmark"})
	if err != nil {
		tc.close()
		return nil, err
	}
	tc.rt = rt
	return tc, nil
}

// boot starts node i and binds it: on TCP to a fresh loopback port, which
// is written back into the configuration the runtime will dial.
func (tc *testCluster) boot(i int) error {
	spec := &tc.cfg.Nodes[i]
	devCfgs, err := spec.DeviceConfigs()
	if err != nil {
		return err
	}
	nt := tc.traces[spec.Name]
	icd := device.NewICD()
	sim.RegisterDrivers(icd, tc.reg)
	if nt != nil {
		// The traced driver opens the simulated GPU through the ICD and
		// wraps it; the node opens the wrapper by name like any driver.
		inner := icd
		icd = device.NewICD()
		icd.MustRegister(sim.DriverGPU, func(cfg device.Config) (device.Device, error) {
			dev, err := inner.Open(cfg)
			if err != nil {
				return nil, err
			}
			return &tracedDevice{Device: dev, nt: nt}, nil
		})
	}
	var peers transport.Dialer = transport.TCPDialer{}
	if tc.net != nil {
		peers = tc.net
	}
	n, err := node.New(node.Options{Name: spec.Name, Devices: devCfgs, ICD: icd, ExecWorkers: 1, Dialer: peers})
	if err != nil {
		return err
	}
	var srv *transport.Server
	if nt == nil {
		srv = n.Serve()
	} else {
		// n.Serve with each connection's handler wrapped.
		srv = transport.NewServer(func() transport.Handler {
			return &tracedHandler{inner: n.NewSession().(transport.AsyncHandler), nt: nt}
		})
	}
	if tc.net != nil {
		if err := tc.net.Register(spec.Addr, srv); err != nil {
			srv.Close()
			return err
		}
	} else {
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			srv.Close()
			return err
		}
		spec.Addr = addr
	}
	tc.servers[spec.Name] = srv
	return nil
}

// kill crashes a node of a mem-network cluster: its address is unbound and
// every connection to it drops.
func (tc *testCluster) kill(name string) {
	for _, ns := range tc.cfg.Nodes {
		if ns.Name == name {
			tc.net.Unregister(ns.Addr)
		}
	}
	tc.servers[name].Close()
	delete(tc.servers, name)
}

// restart boots a fresh process at the killed node's address and rejoins
// it to the runtime.
func (tc *testCluster) restart(name string) error {
	for i, ns := range tc.cfg.Nodes {
		if ns.Name == name {
			if err := tc.boot(i); err != nil {
				return err
			}
		}
	}
	return tc.rt.ReconnectNode(name)
}

func (tc *testCluster) close() {
	if tc.rt != nil {
		tc.rt.Close()
	}
	for _, srv := range tc.servers {
		srv.Close()
	}
}
