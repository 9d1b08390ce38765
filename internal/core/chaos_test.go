package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/node"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/transport"
)

// chaosCluster is a test cluster whose nodes can be killed and restarted:
// kill tears the node's server down (every connection dies, exactly like a
// crashed process), restart boots a fresh node process at the same address
// and rejoins it through ReconnectNode.
type chaosCluster struct {
	t       *testing.T
	cfg     *cluster.Config
	icd     *device.ICD
	net     *transport.MemNetwork
	rt      *core.Runtime
	servers map[string]*transport.Server
	addrs   map[string]string
	alive   map[string]bool
}

func startChaosCluster(t *testing.T, gpuNodes int) *chaosCluster {
	t.Helper()
	cc := &chaosCluster{
		t:       t,
		cfg:     cluster.Synthetic("chaos-test", 0, gpuNodes, 0, nil),
		icd:     device.NewICD(),
		net:     transport.NewMemNetwork(),
		servers: make(map[string]*transport.Server),
		addrs:   make(map[string]string),
		alive:   make(map[string]bool),
	}
	sim.RegisterDrivers(cc.icd, testRegistry())
	for _, ns := range cc.cfg.Nodes {
		cc.addrs[ns.Name] = ns.Addr
		cc.boot(ns.Name)
	}
	rt, err := core.Connect(core.Options{Config: cc.cfg, Dialer: cc.net, ClientName: "chaos-test"})
	if err != nil {
		t.Fatal(err)
	}
	cc.rt = rt
	return cc
}

// boot starts a fresh node process (new boot ID) and binds it at the
// node's address.
func (cc *chaosCluster) boot(name string) {
	cc.t.Helper()
	for _, ns := range cc.cfg.Nodes {
		if ns.Name != name {
			continue
		}
		devCfgs, err := ns.DeviceConfigs()
		if err != nil {
			cc.t.Fatal(err)
		}
		n, err := node.New(node.Options{Name: ns.Name, Devices: devCfgs, ICD: cc.icd, ExecWorkers: 1, Dialer: cc.net})
		if err != nil {
			cc.t.Fatal(err)
		}
		srv := n.Serve()
		if err := cc.net.Register(ns.Addr, srv); err != nil {
			cc.t.Fatal(err)
		}
		cc.servers[name] = srv
		cc.alive[name] = true
		return
	}
	cc.t.Fatalf("unknown node %q", name)
}

// kill crashes the named node: the address unbinds (dials fail until a
// restart) and every live connection — host and peer alike — drops.
func (cc *chaosCluster) kill(name string) {
	cc.t.Helper()
	if !cc.alive[name] {
		return
	}
	cc.net.Unregister(cc.addrs[name])
	cc.servers[name].Close()
	cc.alive[name] = false
}

// restart boots a fresh process for the node and rejoins it.
func (cc *chaosCluster) restart(name string) {
	cc.t.Helper()
	if cc.alive[name] {
		return
	}
	cc.boot(name)
	if err := cc.rt.ReconnectNode(name); err != nil {
		cc.t.Fatalf("rejoin %q: %v", name, err)
	}
}

func (cc *chaosCluster) close() {
	cc.rt.Close()
	for name, srv := range cc.servers {
		if cc.alive[name] {
			srv.Close()
		}
	}
}

func (cc *chaosCluster) aliveCount() int {
	n := 0
	for _, a := range cc.alive {
		if a {
			n++
		}
	}
	return n
}

// chaosObjects builds what a randomized workload runs on: a context over
// every device, the incr kernel, one queue per device and nBufs buffers of
// size bytes.
func chaosObjects(t *testing.T, rt *core.Runtime, nBufs int, size int64) (*core.Context, *core.Kernel, []*core.Queue, []*core.Buffer) {
	t.Helper()
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
	k, err := prog.CreateKernel("incr")
	if err != nil {
		t.Fatal(err)
	}
	var queues []*core.Queue
	for _, d := range devs {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			t.Fatal(err)
		}
		queues = append(queues, q)
	}
	var bufs []*core.Buffer
	for i := 0; i < nBufs; i++ {
		b, err := ctx.CreateBuffer(size)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	return ctx, k, queues, bufs
}

// chaosWorkload drives a deterministic randomized op mix — writes, incr
// kernels, copies, broadcasts, range reads — over a set of buffers,
// maintaining a host-side mirror as the coherence oracle. When inj is
// non-nil, every kill point crashes one node mid-stream (restarting any
// previously crashed node first), so recovery and rejoin interleave with
// the workload. With settle, every queue is finished right after each
// rejoin, while what was issued before it may still be in flight. Returns
// the final contents of every buffer.
func chaosWorkload(t *testing.T, cc *chaosCluster, seed int64, steps int, inj *sim.FailureInjector, settle bool) []byte {
	t.Helper()
	rt := cc.rt
	rng := rand.New(rand.NewSource(seed))

	const nBufs = 3
	const floats = 64
	const size = floats * 4
	ctx, k, queues, bufs := chaosObjects(t, rt, nBufs, size)
	mirror := make([][]float32, nBufs)
	for i := range mirror {
		mirror[i] = make([]float32, floats)
	}
	written := make([]mem.RangeSet, nBufs)

	randQ := func() *core.Queue { return queues[rng.Intn(len(queues))] }
	randRange := func() (lo, hi int) {
		lo = rng.Intn(floats)
		hi = lo + 1 + rng.Intn(floats-lo)
		return lo, hi
	}

	for step := 0; step < steps; step++ {
		if inj != nil {
			if victim := inj.Tick(); victim != "" {
				// Rejoin any earlier casualty first, then crash the victim —
				// unless it is the last node standing.
				for name, a := range cc.alive {
					if !a {
						cc.restart(name)
						if settle {
							finishAll(t, queues, fmt.Sprintf("step %d: finish after rejoining %s", step, name))
						}
					}
				}
				if cc.aliveCount() > 1 {
					cc.kill(victim)
				}
			}
		}
		bi := rng.Intn(nBufs)
		b, m := bufs[bi], mirror[bi]
		switch op := rng.Intn(100); {
		case op < 35: // ranged write
			lo, hi := randRange()
			vals := make([]float32, hi-lo)
			for i := range vals {
				vals[i] = float32(rng.Intn(1000))
			}
			if _, err := randQ().EnqueueWrite(b, int64(lo*4), mem.F32Bytes(vals)); err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			copy(m[lo:hi], vals)
			written[bi].Add(int64(lo*4), int64(hi*4))
		case op < 55: // incr kernel over the whole buffer
			if err := k.SetArg(0, b); err != nil {
				t.Fatal(err)
			}
			if err := k.SetArg(1, int32(floats)); err != nil {
				t.Fatal(err)
			}
			if _, err := randQ().EnqueueKernel(k, []int{floats}, nil, nil, nil); err != nil {
				t.Fatalf("step %d kernel: %v", step, err)
			}
			for i := range m {
				m[i]++
			}
			written[bi].Add(0, size)
		case op < 70: // copy a range into another buffer
			oi := (bi + 1 + rng.Intn(nBufs-1)) % nBufs
			lo, hi := randRange()
			if _, err := randQ().EnqueueCopy(b, bufs[oi], int64(lo*4), int64(lo*4), int64((hi-lo)*4)); err != nil {
				t.Fatalf("step %d copy: %v", step, err)
			}
			copy(mirror[oi][lo:hi], m[lo:hi])
			written[oi].Add(int64(lo*4), int64(hi*4))
		case op < 85: // ranged read, checked against the mirror
			lo, hi := randRange()
			data, _, err := randQ().EnqueueRead(b, int64(lo*4), int64((hi-lo)*4))
			if err != nil {
				t.Fatalf("step %d read: %v", step, err)
			}
			got := mem.BytesF32(data)
			for i, v := range got {
				if v != m[lo+i] {
					t.Fatalf("step %d: buffer %d float %d = %v, mirror %v", step, bi, lo+i, v, m[lo+i])
				}
			}
		default: // broadcast fresh contents everywhere
			vals := make([]float32, floats)
			for i := range vals {
				vals[i] = float32(rng.Intn(1000))
			}
			if _, err := ctx.Broadcast(b, mem.F32Bytes(vals), queues); err != nil {
				t.Fatalf("step %d broadcast: %v", step, err)
			}
			copy(m, vals)
			written[bi].Add(0, size)
		}
		checkNoHostCopyNeeded(t, fmt.Sprintf("step %d", step), bufs, written)
	}

	// Settle every queue, then read all buffers back through one queue.
	finishAll(t, queues, "finish")
	var final bytes.Buffer
	for i, b := range bufs {
		data, _, err := queues[0].EnqueueRead(b, 0, size)
		if err != nil {
			t.Fatalf("final read: %v", err)
		}
		got := mem.BytesF32(data)
		for j, v := range got {
			if v != mirror[i][j] {
				t.Fatalf("final: buffer %d float %d = %v, mirror %v", i, j, v, mirror[i][j])
			}
		}
		final.Write(data)
	}
	return final.Bytes()
}

// finishAll finishes every queue, failing the test on the first error.
func finishAll(t *testing.T, queues []*core.Queue, what string) {
	t.Helper()
	for _, q := range queues {
		if _, err := q.Finish(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
}

// TestChaosCoherenceOracle is the fault-tolerance acceptance test: a
// seeded workload with nodes crashing and rejoining mid-stream must
// produce byte-identical buffer contents to the same workload on a cluster
// that never fails. The host-side mirror checks every intermediate read as
// well, so a replica leaking stale post-crash state fails loudly at the
// step that observed it, and the host-free invariant
// (checkNoHostCopyNeeded) is checked after every step, across crashes and
// replays. The delta subtests are named for the delta migration the
// workload exercises.
//
// The finish-after-rejoin subtests finish every queue right after each
// rejoin, with the migrations issued before it still in flight. The
// rejoin's membership change can fail a push between two live nodes; its
// consumer then waits for the host to cancel the rendezvous, and the host
// cancels only once it has the push's failure. A node used to hold that
// failure back until every request of the push's envelope had completed,
// and one of them could be queued behind the waiting consumer: seeds 26,
// 31 and 66 each hung that way in 4 or 5 runs of 5. Seed 7 is the
// experiment harness's.
func TestChaosCoherenceOracle(t *testing.T) {
	for _, c := range []struct {
		name             string
		seeds            []int64
		steps, killEvery int
		settle           bool
	}{
		{"delta", []int64{1, 7, 99}, 80, 13, false},
		{"finish-after-rejoin", []int64{7, 26, 31, 66}, 240, 17, true},
	} {
		for _, seed := range c.seeds {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				base := startChaosCluster(t, 3)
				want := chaosWorkload(t, base, seed, c.steps, nil, false)
				base.close()

				cc := startChaosCluster(t, 3)
				var names []string
				for _, ns := range cc.cfg.Nodes {
					names = append(names, ns.Name)
				}
				inj := sim.NewFailureInjector(seed, names, c.killEvery)
				got := chaosWorkload(t, cc, seed, c.steps, inj, c.settle)
				metrics := cc.rt.Metrics()
				cc.close()

				if !bytes.Equal(got, want) {
					t.Fatalf("chaos run diverged from no-failure run (%d vs %d bytes)", len(got), len(want))
				}
				if metrics.Recoveries == 0 {
					t.Fatal("chaos run recorded no recoveries — the injector never bit")
				}
			})
		}
	}
}
