package core_test

import (
	"fmt"
	"io"
	"slices"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/node"
	"github.com/haocl-project/haocl/internal/trace"
)

// These tests pin down the crash-recovery lifecycle one transition at a
// time (DESIGN.md §7); the chaos oracle in chaos_test.go then exercises
// all of them interleaved under a randomized workload.

// recoveryFixture builds a two-node cluster with a context spanning both
// devices, one queue per device, and a 64-float buffer.
type recoveryFixture struct {
	cc   *chaosCluster
	ctx  *core.Context
	qs   []*core.Queue
	buf  *core.Buffer
	incr *core.Kernel
}

func newRecoveryFixture(t *testing.T, nodes int) *recoveryFixture {
	t.Helper()
	cc := startChaosCluster(t, nodes)
	t.Cleanup(cc.close)
	devs := cc.rt.Devices(0)
	if len(devs) != nodes {
		t.Fatalf("devices = %d, want %d", len(devs), nodes)
	}
	ctx, err := cc.rt.OpenSession("default").CreateContext(devs)
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
	f := &recoveryFixture{cc: cc, ctx: ctx, incr: k}
	for _, d := range devs {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			t.Fatal(err)
		}
		f.qs = append(f.qs, q)
	}
	if f.buf, err = ctx.CreateBuffer(64 * 4); err != nil {
		t.Fatal(err)
	}
	return f
}

// queueOn returns a queue bound to the named node (before any re-binding).
func (f *recoveryFixture) queueOn(t *testing.T, name string) *core.Queue {
	t.Helper()
	for _, q := range f.qs {
		if q.Device().Key().Node == name {
			return q
		}
	}
	t.Fatalf("no queue on %q", name)
	return nil
}

func (f *recoveryFixture) mustRead(t *testing.T, q *core.Queue, want []float32) {
	t.Helper()
	data, _, err := q.EnqueueRead(f.buf, 0, int64(len(want)*4))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	got := mem.BytesF32(data)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("float %d = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestCrashReplacement: work issued on a node that then dies must be
// re-placed on the survivor — the dead node's queue keeps working (it
// re-binds), and the buffer contents come back from the replayed log, not
// from the lost replica.
func TestCrashReplacement(t *testing.T) {
	f := newRecoveryFixture(t, 2)
	victim := f.cc.cfg.Nodes[0].Name
	qv := f.queueOn(t, victim)
	qs := f.queueOn(t, f.cc.cfg.Nodes[1].Name)

	if _, err := qv.EnqueueWrite(f.buf, 0, mem.F32Bytes([]float32{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	if err := f.incr.SetArg(0, f.buf); err != nil {
		t.Fatal(err)
	}
	if err := f.incr.SetArg(1, int32(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := qv.EnqueueKernel(f.incr, []int{4}, nil, nil, nil); err != nil {
		t.Fatal(err)
	}

	f.cc.kill(victim)

	// The survivor's queue sees the post-kernel contents via replay.
	f.mustRead(t, qs, []float32{2, 3, 4, 5})
	// The victim's queue is re-bound to the survivor, not stuck failing.
	f.mustRead(t, qv, []float32{2, 3, 4, 5})

	m := f.cc.rt.Metrics()
	if m.Recoveries == 0 {
		t.Fatal("node death triggered no recovery")
	}
	if m.ReplayedCommands == 0 {
		t.Fatal("recovery replayed nothing, yet the contents survived?")
	}
}

// TestRecoveredQueueKeepsItsID: a queue recovery re-binds to a survivor
// keeps its ID (DESIGN.md §8), so the trace shows the queue's writes
// before the crash, the replay and its reads after as one queue.
func TestRecoveredQueueKeepsItsID(t *testing.T) {
	f := newRecoveryFixture(t, 3)
	tr := trace.New()
	f.cc.rt.SetTracer(tr)
	victim := f.cc.cfg.Nodes[0].Name
	qv := f.queueOn(t, victim)

	if _, err := qv.EnqueueWrite(f.buf, 0, mem.F32Bytes([]float32{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	if _, err := qv.Finish(); err != nil {
		t.Fatal(err)
	}
	f.cc.kill(victim)
	f.mustRead(t, qv, []float32{1, 2, 3, 4}) // re-binds qv
	if node := qv.Device().Key().Node; node == victim {
		t.Fatalf("queue still bound to %s after it died", victim)
	}
	if err := f.cc.rt.WriteTrace(io.Discard); err != nil {
		t.Fatal(err)
	}

	var ids []uint64
	nodes := map[string]bool{}
	for _, s := range tr.Spans() {
		if s.Kind == trace.KindWrite || s.Kind == trace.KindRead {
			ids = append(ids, s.Queue)
			nodes[s.Node] = true
		}
	}
	if !nodes[victim] || len(nodes) < 2 {
		t.Fatalf("write and read spans on nodes %v, want %s's and a survivor's", nodes, victim)
	}
	slices.Sort(ids)
	if ids = slices.Compact(ids); len(ids) != 1 {
		t.Fatalf("the re-bound queue's write and read spans carry queue IDs %v, want one", ids)
	}
}

// TestGenuineReleaseErrorSurvivesRecovery: a sticky release failure from a
// live node must survive a recovery pass triggered by a different node's
// crash. Recovery absolves only crash-induced release failures (acks that
// died with a dead connection); a genuine RemoteError stays latched and
// surfaces at the tenant's Flush.
func TestGenuineReleaseErrorSurvivesRecovery(t *testing.T) {
	f := newRecoveryFixture(t, 2)
	victim := f.cc.cfg.Nodes[0].Name
	qv := f.queueOn(t, victim)
	qs := f.queueOn(t, f.cc.cfg.Nodes[1].Name)

	// Latch a genuine release failure on the survivor: the second release
	// of the same queue names an object the node already freed, and the
	// node stays alive, so the failed ack classifies as a RemoteError, not
	// as node loss.
	extra, err := f.ctx.CreateQueue(qs.Device())
	if err != nil {
		t.Fatal(err)
	}
	if err := extra.Release(); err != nil {
		t.Fatal(err)
	}
	if err := extra.Release(); err != nil {
		t.Fatal(err)
	}

	// Put the buffer's only valid replica on the victim, then kill it: the
	// survivor's read must migrate from the dead node, and that failure
	// drives a full recovery pass (which drains the pending release acks
	// with the victim dead).
	if _, err := qv.EnqueueWrite(f.buf, 0, mem.F32Bytes([]float32{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	f.cc.kill(victim)
	f.mustRead(t, qs, []float32{1, 2, 3, 4})
	if m := f.cc.rt.Metrics(); m.Recoveries == 0 {
		t.Fatal("node death triggered no recovery")
	}

	if err := f.cc.rt.Flush(); err == nil {
		t.Fatal("recovery absolved a genuine sticky release error from a live node")
	}
}

// TestRejoinLazyReplication: a restarted node (fresh process, new boot ID)
// rejoins with empty devices; a queue on it must see current buffer
// contents through lazy re-replication — the validity map has no entry for
// the new incarnation, so the first use migrates the data in.
func TestRejoinLazyReplication(t *testing.T) {
	f := newRecoveryFixture(t, 2)
	victim := f.cc.cfg.Nodes[0].Name
	qv := f.queueOn(t, victim)
	qs := f.queueOn(t, f.cc.cfg.Nodes[1].Name)

	if _, err := qv.EnqueueWrite(f.buf, 0, mem.F32Bytes([]float32{7, 8, 9, 10})); err != nil {
		t.Fatal(err)
	}
	f.cc.kill(victim)
	f.mustRead(t, qs, []float32{7, 8, 9, 10}) // recovery re-places on the survivor

	f.cc.restart(victim)
	// New work on the rejoined node: a fresh queue on its device.
	var dev *core.DeviceRef
	for _, d := range f.cc.rt.Devices(0) {
		if d.Key().Node == victim {
			dev = d
		}
	}
	if dev == nil {
		t.Fatalf("rejoined node %q has no device", victim)
	}
	q, err := f.ctx.CreateQueue(dev)
	if err != nil {
		t.Fatalf("queue on rejoined node: %v", err)
	}
	f.mustRead(t, q, []float32{7, 8, 9, 10})
}

// TestDoubleRejoinUnderLoad: rejoining the same node ID twice — with
// in-flight commands around both calls — must be safe; the second call is
// a no-op on an already-alive member.
func TestDoubleRejoinUnderLoad(t *testing.T) {
	f := newRecoveryFixture(t, 3)
	victim := f.cc.cfg.Nodes[1].Name
	qa := f.queueOn(t, f.cc.cfg.Nodes[0].Name)

	if _, err := qa.EnqueueWrite(f.buf, 0, mem.F32Bytes([]float32{1, 1, 1, 1})); err != nil {
		t.Fatal(err)
	}
	f.cc.kill(victim)
	// Load across the membership change: pipelined writes, no Finish.
	for i := 0; i < 8; i++ {
		if _, err := qa.EnqueueWrite(f.buf, int64(i*8), mem.F32Bytes([]float32{float32(i), float32(i)})); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	f.cc.restart(victim) // first rejoin
	for i := 0; i < 4; i++ {
		if _, err := qa.EnqueueWrite(f.buf, int64(i*4), mem.F32Bytes([]float32{9})); err != nil {
			t.Fatalf("post-rejoin write %d: %v", i, err)
		}
	}
	if err := f.cc.rt.ReconnectNode(victim); err != nil { // second rejoin: no-op
		t.Fatalf("double rejoin: %v", err)
	}
	if _, err := qa.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	f.mustRead(t, qa, []float32{9, 9, 9, 9, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7})
}

// TestRejoinRacesUserCreates: a build, a queue and a context created the
// moment a rejoining node turns alive land on it once each. ReconnectNode
// re-creates the session's contexts and builds on the fresh process; a
// user's Build, CreateQueue or CreateContext must not reach the node
// before its context is back, nor build there what the rejoin then builds
// again. Twenty contexts make the re-creates long enough to race.
func TestRejoinRacesUserCreates(t *testing.T) {
	f := newRecoveryFixture(t, 2)
	victim := f.cc.cfg.Nodes[0].Name
	devs := f.ctx.Devices()
	vdev := devs[slices.IndexFunc(devs, func(d *core.DeviceRef) bool { return d.Node().Name() == victim })]
	sess := f.ctx.Session()
	var last *core.Context
	for i := 0; i < 20; i++ {
		ctx, err := sess.CreateContext(devs)
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
		last = ctx
	}
	for round := 0; round < 3; round++ {
		f.cc.kill(victim)
		f.cc.awaitDown(victim)
		prog, err := last.CreateProgram(incrSource)
		if err != nil {
			t.Fatal(err)
		}
		created := make(chan error, 1)
		go func() {
			for !vdev.Node().Alive() {
				time.Sleep(10 * time.Microsecond)
			}
			if err := prog.Build(); err != nil {
				created <- fmt.Errorf("build: %w", err)
				return
			}
			if _, err := last.CreateQueue(vdev); err != nil {
				created <- fmt.Errorf("queue: %w", err)
				return
			}
			if _, err := sess.CreateContext(devs); err != nil {
				created <- fmt.Errorf("context: %w", err)
				return
			}
			created <- nil
		}()
		f.cc.restart(victim)
		if err := <-created; err != nil {
			t.Fatalf("round %d: %v", round, err)
		}

		// The racing build runs on the rejoined node.
		q, err := last.CreateQueue(vdev)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := last.CreateBuffer(4 * 4)
		if err != nil {
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
		if _, err := q.EnqueueWrite(buf, 0, mem.F32Bytes([]float32{1, 2, 3, 4})); err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueKernel(k, []int{4}, nil, nil, nil); err != nil {
			t.Fatalf("round %d: kernel on the rejoined node: %v", round, err)
		}
		data, _, err := q.EnqueueRead(buf, 0, 4*4)
		if err != nil {
			t.Fatalf("round %d: read: %v", round, err)
		}
		if got := mem.BytesF32(data); !slices.Equal(got, []float32{2, 3, 4, 5}) {
			t.Fatalf("round %d: read %v, want [2 3 4 5]", round, got)
		}
	}
}

// TestReconnectBackoff: a rejoin that races the node coming back up must
// retry the dial with backoff — the first attempts fail (nothing bound at
// the address), then the node binds and the rejoin lands.
func TestReconnectBackoff(t *testing.T) {
	f := newRecoveryFixture(t, 2)
	victim := f.cc.cfg.Nodes[0].Name
	qs := f.queueOn(t, f.cc.cfg.Nodes[1].Name)

	if _, err := qs.EnqueueWrite(f.buf, 0, mem.F32Bytes([]float32{3, 1, 4, 1})); err != nil {
		t.Fatal(err)
	}
	f.cc.kill(victim)
	f.mustRead(t, qs, []float32{3, 1, 4, 1})

	// Build the fresh process now, but bind its address only after a
	// delay, so ReconnectNode's first dials fail and it must back off.
	f.rejoinRacingBind(t, 0, []float32{3, 1, 4, 1})
}

// rejoinRacingBind builds a fresh process for node i, binds it at the
// node's address 20 ms from now — replacing whatever is still bound there —
// and rejoins the node in the meantime, so that the first dials fail. The
// rejoined node must then serve want out of the fixture's buffer.
func (f *recoveryFixture) rejoinRacingBind(t *testing.T, i int, want []float32) {
	t.Helper()
	cc := f.cc
	ns := cc.cfg.Nodes[i]
	devCfgs, err := ns.DeviceConfigs()
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Options{Name: ns.Name, Devices: devCfgs, ICD: cc.icd, ExecWorkers: 1, Dialer: cc.net})
	if err != nil {
		t.Fatal(err)
	}
	srv := n.Serve()
	regErr := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		cc.net.Unregister(ns.Addr)
		regErr <- cc.net.Register(ns.Addr, srv)
	}()

	if err := cc.rt.ReconnectNode(ns.Name); err != nil {
		t.Fatalf("rejoin racing the bind: %v", err)
	}
	if err := <-regErr; err != nil {
		t.Fatalf("register: %v", err)
	}
	cc.servers[ns.Name] = srv
	cc.alive[ns.Name] = true

	// The rejoined node is usable.
	var dev *core.DeviceRef
	for _, d := range cc.rt.Devices(0) {
		if d.Key().Node == ns.Name {
			dev = d
		}
	}
	if dev == nil {
		t.Fatalf("rejoined node %q has no device", ns.Name)
	}
	q, err := f.ctx.CreateQueue(dev)
	if err != nil {
		t.Fatal(err)
	}
	f.mustRead(t, q, want)
}
