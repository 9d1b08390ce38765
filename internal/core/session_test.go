package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/sched"
)

// sessionLane is one session's working set on a single device: a context,
// a queue, a buffer and the incr kernel, ready to run lifecycle rounds.
type sessionLane struct {
	sess *core.Session
	ctx  *core.Context
	q    *core.Queue
	buf  *core.Buffer
	incr *core.Kernel
}

// openLane opens a session for tenant whose context spans ctxDevs and
// whose queue sits on ctxDevs[0].
func openLane(t *testing.T, rt *core.Runtime, tenant string, ctxDevs ...*core.DeviceRef) *sessionLane {
	t.Helper()
	dev := ctxDevs[0]
	s := rt.OpenSession(tenant)
	ctx, err := s.CreateContext(ctxDevs)
	if err != nil {
		t.Fatal(err)
	}
	prog := buildIncr(t, ctx)
	k := incrKernelOf(t, prog)
	q, err := ctx.CreateQueue(dev)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(16 * 4)
	if err != nil {
		t.Fatal(err)
	}
	return &sessionLane{sess: s, ctx: ctx, q: q, buf: buf, incr: k}
}

// round writes base..base+15 into the lane's buffer, increments it on the
// device and reads it back, failing on any mismatch.
func (l *sessionLane) round(base float32) error {
	in := make([]float32, 16)
	for i := range in {
		in[i] = base + float32(i)
	}
	if _, err := l.q.EnqueueWrite(l.buf, 0, mem.F32Bytes(in)); err != nil {
		return err
	}
	if err := l.incr.SetArg(0, l.buf); err != nil {
		return err
	}
	if err := l.incr.SetArg(1, int32(16)); err != nil {
		return err
	}
	if _, err := l.q.EnqueueKernel(l.incr, []int{16}, nil, nil, nil); err != nil {
		return err
	}
	data, _, err := l.q.EnqueueRead(l.buf, 0, 16*4)
	if err != nil {
		return err
	}
	got := mem.BytesF32(data)
	for i := range in {
		if got[i] != in[i]+1 {
			return fmt.Errorf("float %d = %v, want %v", i, got[i], in[i]+1)
		}
	}
	return nil
}

// TestSessionNamespaceIsolation: one session's queues refuse the other
// session's buffers, events and kernels with ErrCrossSession — the
// namespace boundary of DESIGN.md §8.
func TestSessionNamespaceIsolation(t *testing.T) {
	rt := startRuntime(t, 1)
	dev := rt.Devices(0)[0]
	a := openLane(t, rt, "tenant-a", dev)
	b := openLane(t, rt, "tenant-b", dev)

	evA, err := a.q.EnqueueWrite(a.buf, 0, make([]byte, 16*4))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := b.q.EnqueueWrite(a.buf, 0, make([]byte, 16*4)); !errors.Is(err, core.ErrCrossSession) {
		t.Fatalf("cross-session write: %v, want ErrCrossSession", err)
	}
	if _, _, err := b.q.EnqueueRead(a.buf, 0, 16*4); !errors.Is(err, core.ErrCrossSession) {
		t.Fatalf("cross-session read: %v, want ErrCrossSession", err)
	}
	if _, err := b.q.EnqueueWrite(b.buf, 0, make([]byte, 16*4), evA); !errors.Is(err, core.ErrCrossSession) {
		t.Fatalf("cross-session wait: %v, want ErrCrossSession", err)
	}
	if _, err := b.q.EnqueueKernel(a.incr, []int{16}, nil, nil, nil); !errors.Is(err, core.ErrCrossSession) {
		t.Fatalf("cross-session kernel: %v, want ErrCrossSession", err)
	}
	if err := b.incr.SetArg(0, b.buf); err != nil {
		t.Fatal(err)
	}
	if err := b.incr.SetArg(1, int32(16)); err != nil {
		t.Fatal(err)
	}
	// The refusals must not have poisoned b's own lane.
	if err := b.round(0); err != nil {
		t.Fatalf("tenant-b after refusals: %v", err)
	}
	if err := a.sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionReleaseErrorScoped: a release storm gone wrong (here: the
// same queue released twice, so the second ack reports an unknown object)
// surfaces as the offending session's sticky Flush error — and stays
// sticky — while the innocent session's Flush stays clean. Before the
// session refactor the runtime held one global sticky release error, so
// tenant A's teardown bug poisoned tenant B's Flush.
func TestSessionReleaseErrorScoped(t *testing.T) {
	rt := startRuntime(t, 1)
	dev := rt.Devices(0)[0]
	a := openLane(t, rt, "tenant-a", dev)
	b := openLane(t, rt, "tenant-b", dev)

	if err := a.q.Release(); err != nil {
		t.Fatal(err)
	}
	if err := a.q.Release(); err != nil {
		t.Fatal(err) // fire-and-forget: the failure arrives with the ack
	}
	if err := a.sess.Flush(); err == nil {
		t.Fatal("double release produced no sticky error on tenant-a")
	}
	if err := a.sess.Flush(); err == nil {
		t.Fatal("sticky release error vanished on second Flush")
	}
	if err := b.sess.Flush(); err != nil {
		t.Fatalf("tenant-a's release error leaked into tenant-b: %v", err)
	}
	if err := b.round(0); err != nil {
		t.Fatalf("tenant-b after a's failed release: %v", err)
	}
	if err := b.sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionPolicyAndMigrationIsolation: SetPolicy acts on one session
// only.
func TestSessionPolicyAndMigrationIsolation(t *testing.T) {
	rt := startRuntime(t, 1)
	a := rt.OpenSession("tenant-a")
	b := rt.OpenSession("tenant-b")
	defer a.Close()
	defer b.Close()

	before := b.Policy().Name()
	a.SetPolicy(sched.NewUserDirected())
	if got := b.Policy().Name(); got != before {
		t.Fatalf("a's SetPolicy changed b's policy to %q", got)
	}
	if got := a.Policy().Name(); got != "user-directed" {
		t.Fatalf("a's policy = %q, want user-directed", got)
	}
}

// TestSessionConcurrentLifecycleCrash drives several tenants through full
// open → enqueue → flush → close lifecycles concurrently while a node they
// are split across dies mid-stream. Every tenant must finish with correct
// data, and recovery must replay only the tenants that had state on the
// dead node: survivor-only sessions record zero recoveries.
func TestSessionConcurrentLifecycleCrash(t *testing.T) {
	cc := startChaosCluster(t, 2)
	devs := cc.rt.Devices(0)
	if len(devs) != 2 {
		t.Fatalf("devices = %d", len(devs))
	}
	victim := cc.cfg.Nodes[0].Name
	var victimDev, survivorDev *core.DeviceRef
	for _, d := range devs {
		if d.Key().Node == victim {
			victimDev = d
		} else {
			survivorDev = d
		}
	}
	if victimDev == nil || survivorDev == nil {
		t.Fatal("device/node mapping incomplete")
	}

	const perSide = 3
	type result struct {
		tenant    string
		onVictim  bool
		recovered int64
		replayed  int64
		err       error
	}
	results := make([]result, 2*perSide)
	var started, done sync.WaitGroup
	release, killed := make(chan struct{}), make(chan struct{})
	for i := 0; i < 2*perSide; i++ {
		onVictim := i < perSide
		// Victim lanes span both nodes (so recovery has somewhere to
		// re-place the dead node's work) with their queue on the victim;
		// survivor lanes never touch the victim at all.
		ctxDevs := []*core.DeviceRef{survivorDev}
		if onVictim {
			ctxDevs = []*core.DeviceRef{victimDev, survivorDev}
		}
		tenant := fmt.Sprintf("tenant-%d", i)
		lane := openLane(t, cc.rt, tenant, ctxDevs...)
		started.Add(1)
		done.Add(1)
		go func(i int, lane *sessionLane, onVictim bool) {
			defer done.Done()
			res := result{tenant: tenant, onVictim: onVictim}
			res.err = func() error {
				// A first round lands state on the node before the kill.
				if err := lane.round(float32(i)); err != nil {
					return err
				}
				started.Done()
				<-release
				// Rounds until the node has been killed, and three more: a
				// lane that finished before the kill landed would have
				// nothing to recover from.
				for r, after := 1, 0; after < 3; r++ {
					select {
					case <-killed:
						after++
					default:
					}
					if err := lane.round(float32(i + 100*r)); err != nil {
						return err
					}
				}
				m := lane.sess.Metrics()
				res.recovered = m.Recoveries
				res.replayed = m.ReplayedCommands
				return lane.sess.Close()
			}()
			results[i] = res
		}(i, lane, onVictim)
	}

	started.Wait()
	close(release)
	cc.kill(victim)
	close(killed)
	done.Wait()

	var victimRecoveries int64
	for i := range results {
		r := results[i]
		if r.err != nil {
			t.Errorf("%s (onVictim=%v): %v", r.tenant, r.onVictim, r.err)
			continue
		}
		if r.onVictim {
			victimRecoveries += r.recovered
		} else if r.recovered != 0 || r.replayed != 0 {
			t.Errorf("%s never touched %q yet recorded %d recoveries / %d replays",
				r.tenant, victim, r.recovered, r.replayed)
		}
	}
	if victimRecoveries == 0 {
		t.Fatal("no victim-side session recorded a recovery")
	}
	if m := cc.rt.Metrics(); m.Recoveries == 0 {
		t.Fatal("runtime recorded no recovery")
	}
}
