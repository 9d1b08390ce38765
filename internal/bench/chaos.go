package bench

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"

	clusterpkg "github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/node"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/transport"
)

// This file measures the failure model (DESIGN.md §7): the same seeded
// workload runs twice — once on a healthy cluster, once with the
// deterministic failure injector crashing and rejoining
// nodes mid-stream — and the chaos leg must end with byte-identical
// buffer contents. The comparison's speedup is the chaos leg's command
// rate over the healthy leg's: recovery is not free (each crash replays
// the mutation log onto the survivors), but the overhead must stay
// bounded, which CI gates through scripts/check_bench.py.

const chaosKernelSource = `
__kernel void chaos_incr(__global float* x, const int n) {
    int i = get_global_id(0);
    if (i < n) x[i] += 1.0f;
}
`

// chaosRegistry holds the one kernel the chaos workload launches.
func chaosRegistry() *kernel.Registry {
	reg := kernel.NewRegistry()
	reg.MustRegister(&kernel.Spec{
		Name: "chaos_incr", NumArgs: 2,
		Func: func(it *kernel.Item, args []kernel.Arg) {
			i := it.GlobalID(0)
			if i < args[1].Int() {
				args[0].Float32s()[i]++
			}
		},
	})
	return reg
}

// chaosBenchCluster is a crash-and-restart-capable in-process cluster:
// kill unbinds a node's address and drops every connection (a crashed
// process), restart boots a fresh process at the same address and rejoins
// it through the runtime.
type chaosBenchCluster struct {
	cfg     *clusterpkg.Config
	icd     *device.ICD
	net     *transport.MemNetwork
	rt      *core.Runtime
	servers map[string]*transport.Server
	alive   map[string]bool
}

func startChaosBenchCluster(nodes int) (*chaosBenchCluster, error) {
	cc := &chaosBenchCluster{
		cfg:     clusterpkg.Synthetic("chaos-bench", 0, nodes, 0, nil),
		icd:     device.NewICD(),
		net:     transport.NewMemNetwork(),
		servers: make(map[string]*transport.Server),
		alive:   make(map[string]bool),
	}
	sim.RegisterDrivers(cc.icd, chaosRegistry())
	for _, ns := range cc.cfg.Nodes {
		if err := cc.boot(ns.Name); err != nil {
			cc.close()
			return nil, err
		}
	}
	rt, err := core.Connect(core.Options{Config: cc.cfg, Dialer: cc.net, ClientName: "chaos-bench"})
	if err != nil {
		cc.close()
		return nil, err
	}
	attachTracerRuntime(rt)
	cc.rt = rt
	return cc, nil
}

func (cc *chaosBenchCluster) boot(name string) error {
	for _, ns := range cc.cfg.Nodes {
		if ns.Name != name {
			continue
		}
		devCfgs, err := ns.DeviceConfigs()
		if err != nil {
			return err
		}
		n, err := node.New(node.Options{Name: ns.Name, Devices: devCfgs, ICD: cc.icd, ExecWorkers: 1, Dialer: cc.net})
		if err != nil {
			return err
		}
		srv := n.Serve()
		if err := cc.net.Register(ns.Addr, srv); err != nil {
			srv.Close()
			return err
		}
		cc.servers[name] = srv
		cc.alive[name] = true
		return nil
	}
	return fmt.Errorf("chaos: unknown node %q", name)
}

func (cc *chaosBenchCluster) kill(name string) {
	if !cc.alive[name] {
		return
	}
	for _, ns := range cc.cfg.Nodes {
		if ns.Name == name {
			cc.net.Unregister(ns.Addr)
		}
	}
	cc.servers[name].Close()
	cc.alive[name] = false
}

func (cc *chaosBenchCluster) restart(name string) error {
	if cc.alive[name] {
		return nil
	}
	if err := cc.boot(name); err != nil {
		return err
	}
	return cc.rt.ReconnectNode(name)
}

func (cc *chaosBenchCluster) aliveCount() int {
	n := 0
	for _, a := range cc.alive {
		if a {
			n++
		}
	}
	return n
}

func (cc *chaosBenchCluster) close() {
	if cc.rt != nil {
		cc.rt.Close()
	}
	for name, srv := range cc.servers {
		if cc.alive[name] {
			srv.Close()
		}
	}
}

// chaosSizes picks the workload scale.
func chaosSizes(quick bool) (nodes, steps, killEvery int) {
	if quick {
		return 3, 80, 13
	}
	return 3, 240, 17
}

// chaosLeg runs the seeded workload once — writes, kernels, copies,
// broadcasts and checked reads over three buffers, mirrored host-side —
// and returns the measured row plus the final buffer bytes. With inj
// non-nil, every kill point restarts the previous casualty and crashes
// the nominated victim mid-stream.
func chaosLeg(seed int64, nodes, steps int, inj *sim.FailureInjector) (PipelineRow, []byte, error) {
	legName := "no-failure"
	if inj != nil {
		legName = "chaos"
	}
	row := PipelineRow{Workload: "p2p", Transport: "mem", Mode: legName}

	cc, err := startChaosBenchCluster(nodes)
	if err != nil {
		return row, nil, err
	}
	defer cc.close()

	rng := rand.New(rand.NewSource(seed))
	devs := cc.rt.Devices(0)
	ctx, err := cc.rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		return row, nil, err
	}
	prog, err := ctx.CreateProgram(chaosKernelSource)
	if err != nil {
		return row, nil, err
	}
	if err := prog.Build(); err != nil {
		return row, nil, err
	}
	k, err := prog.CreateKernel("chaos_incr")
	if err != nil {
		return row, nil, err
	}
	var queues []*core.Queue
	for _, d := range devs {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			return row, nil, err
		}
		queues = append(queues, q)
	}

	const nBufs = 3
	const floats = 256
	var bufs []*core.Buffer
	mirror := make([][]float32, nBufs)
	for i := 0; i < nBufs; i++ {
		b, err := ctx.CreateBuffer(floats * 4)
		if err != nil {
			return row, nil, err
		}
		bufs = append(bufs, b)
		mirror[i] = make([]float32, floats)
	}

	randRange := func() (lo, hi int) {
		lo = rng.Intn(floats)
		hi = lo + 1 + rng.Intn(floats-lo)
		return lo, hi
	}

	base := cc.rt.Metrics()
	sw := startStopwatch()
	for step := 0; step < steps; step++ {
		if inj != nil {
			if victim := inj.Tick(); victim != "" {
				// Rejoin in name order: each restart replays logs and charges
				// virtual time, so map order would change the reported figures.
				names := make([]string, 0, len(cc.alive))
				for name := range cc.alive {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					if cc.alive[name] {
						continue
					}
					if err := cc.restart(name); err != nil {
						return row, nil, fmt.Errorf("chaos: step %d rejoin %q: %w", step, name, err)
					}
				}
				if cc.aliveCount() > 1 {
					cc.kill(victim)
				}
			}
		}
		bi := rng.Intn(nBufs)
		b, m := bufs[bi], mirror[bi]
		q := queues[rng.Intn(len(queues))]
		switch op := rng.Intn(100); {
		case op < 35: // ranged write
			lo, hi := randRange()
			vals := make([]float32, hi-lo)
			for i := range vals {
				vals[i] = float32(rng.Intn(1000))
			}
			if _, err := q.EnqueueWrite(b, int64(lo*4), mem.F32Bytes(vals)); err != nil {
				return row, nil, fmt.Errorf("chaos: step %d write: %w", step, err)
			}
			copy(m[lo:hi], vals)
		case op < 55: // kernel over the whole buffer
			if err := k.SetArg(0, b); err != nil {
				return row, nil, err
			}
			if err := k.SetArg(1, int32(floats)); err != nil {
				return row, nil, err
			}
			if _, err := q.EnqueueKernel(k, []int{floats}, nil, nil, nil); err != nil {
				return row, nil, fmt.Errorf("chaos: step %d kernel: %w", step, err)
			}
			for i := range m {
				m[i]++
			}
		case op < 70: // copy a range into another buffer
			oi := (bi + 1 + rng.Intn(nBufs-1)) % nBufs
			lo, hi := randRange()
			if _, err := q.EnqueueCopy(b, bufs[oi], int64(lo*4), int64(lo*4), int64((hi-lo)*4)); err != nil {
				return row, nil, fmt.Errorf("chaos: step %d copy: %w", step, err)
			}
			copy(mirror[oi][lo:hi], m[lo:hi])
		case op < 85: // checked ranged read
			lo, hi := randRange()
			data, _, err := q.EnqueueRead(b, int64(lo*4), int64((hi-lo)*4))
			if err != nil {
				return row, nil, fmt.Errorf("chaos: step %d read: %w", step, err)
			}
			for i, v := range mem.BytesF32(data) {
				if v != m[lo+i] {
					return row, nil, fmt.Errorf("chaos: step %d: buffer %d float %d = %v, mirror %v",
						step, bi, lo+i, v, m[lo+i])
				}
			}
		default: // broadcast fresh contents everywhere
			vals := make([]float32, floats)
			for i := range vals {
				vals[i] = float32(rng.Intn(1000))
			}
			if _, err := ctx.Broadcast(b, mem.F32Bytes(vals), queues); err != nil {
				return row, nil, fmt.Errorf("chaos: step %d broadcast: %w", step, err)
			}
			copy(m, vals)
		}
	}
	for _, q := range queues {
		if _, err := q.Finish(); err != nil {
			return row, nil, fmt.Errorf("chaos: finish: %w", err)
		}
	}
	wall := sw.elapsed()

	m := cc.rt.Metrics()
	row.Commands = m.Commands - base.Commands
	row.WallMS = float64(wall.Microseconds()) / 1000
	row.CmdsPerSec = float64(row.Commands) / wall.Seconds()
	row.VirtualSec = m.Makespan.Seconds()
	row.WireMB = float64(m.WireBytes-base.WireBytes) / (1 << 20)
	row.Recoveries = m.Recoveries
	row.ReplayedCommands = m.ReplayedCommands

	var final bytes.Buffer
	for i, b := range bufs {
		data, _, err := queues[0].EnqueueRead(b, 0, floats*4)
		if err != nil {
			return row, nil, fmt.Errorf("chaos: final read: %w", err)
		}
		for j, v := range mem.BytesF32(data) {
			if v != mirror[i][j] {
				return row, nil, fmt.Errorf("chaos: final: buffer %d float %d = %v, mirror %v", i, j, v, mirror[i][j])
			}
		}
		final.Write(data)
	}
	return row, final.Bytes(), nil
}

// ChaosReport runs the fault-tolerance experiment: a healthy leg and a
// failure-injected leg of the same seeded workload. The
// chaos leg must record recoveries, finish byte-identical to the healthy
// leg (VirtualMatch carries that acceptance bit), and keep its slowdown
// bounded (Speedup = chaos rate / healthy rate).
func ChaosReport(quick bool) (*Report, error) {
	nodes, steps, killEvery := chaosSizes(quick)
	const seed = 7
	healthy, want, err := chaosLeg(seed, nodes, steps, nil)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ns := range clusterpkg.Synthetic("chaos-bench", 0, nodes, 0, nil).Nodes {
		names = append(names, ns.Name)
	}
	inj := sim.NewFailureInjector(seed, names, killEvery)
	chaos, got, err := chaosLeg(seed, nodes, steps, inj)
	if err != nil {
		return nil, err
	}
	if chaos.Recoveries == 0 {
		return nil, fmt.Errorf("chaos: the failure-injected leg recorded no recoveries — the injector never bit")
	}
	identical := bytes.Equal(got, want)
	if !identical {
		return nil, fmt.Errorf("chaos: results diverged from the no-failure leg")
	}
	return &Report{
		Experiment: "chaos",
		Quick:      quick,
		Rows:       []PipelineRow{healthy, chaos},
		Comparisons: []Comparison{{
			Workload:     healthy.Workload,
			Baseline:     "no-failure",
			Mode:         "chaos",
			Speedup:      chaos.CmdsPerSec / healthy.CmdsPerSec,
			VirtualMatch: identical,
			BytesRatio:   chaos.WireMB / healthy.WireMB,
		}},
	}, nil
}

// Chaos runs the fault-tolerance experiment and prints it.
func Chaos(w io.Writer, quick bool) error {
	nodes, steps, killEvery := chaosSizes(quick)
	fmt.Fprintln(w, "=== Fault tolerance: crash detection, re-placement, elastic rejoin ===")
	fmt.Fprintf(w, "(seeded workload over %d nodes, %d steps; the chaos leg crashes a node every %d steps\n",
		nodes, steps, killEvery)
	fmt.Fprintln(w, " and rejoins the previous casualty; results must be byte-identical to the healthy leg,")
	fmt.Fprintln(w, " speedup is the chaos leg's command rate over the healthy leg's — the recovery overhead)")
	rep, err := ChaosReport(quick)
	if err != nil {
		return err
	}
	printReport(w, rep)
	return nil
}
