package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/node"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/transport"
)

// These tests cause a second fault while recovery is re-placing the first
// one (DESIGN.md §7): a node dies, or answers with an error, at a chosen
// request of the recovery itself.

// tripwire sits in front of every session of one node. Once armed for an
// op, it hands the first request of that op to an action instead of the
// node: the action may crash the node (the request is never answered),
// answer with an error, or do something first and then forward it.
type tripwire struct {
	armed atomic.Pointer[trip]
	// crash kills the node like chaosCluster.kill, without its
	// bookkeeping, so that the node's own handler may call it (from
	// another goroutine: closing a server waits for its handlers).
	crash func()
}

// trip is one armed action; forward hands the request on to the node and
// done answers it.
type trip struct {
	op  protocol.Op
	act func(forward func(), done func(protocol.Message, error))
}

func (w *tripwire) arm(op protocol.Op, act func(forward func(), done func(protocol.Message, error))) {
	w.armed.Store(&trip{op: op, act: act})
}

// serve returns a server for the node whose sessions pass through w.
func (w *tripwire) serve(n *node.Node, net *transport.MemNetwork, addr string) *transport.Server {
	srv := transport.NewServer(func() transport.Handler {
		return &trippedSession{AsyncHandler: n.NewSession().(transport.AsyncHandler), w: w}
	})
	w.crash = func() {
		net.Unregister(addr)
		srv.Close()
	}
	return srv
}

type trippedSession struct {
	transport.AsyncHandler
	w *tripwire
}

func (h *trippedSession) HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error)) {
	if tr := h.w.armed.Load(); tr != nil && tr.op == op && h.w.armed.CompareAndSwap(tr, nil) {
		tr.act(func() { h.AsyncHandler.HandleCallAsync(op, body, done) }, done)
		return
	}
	h.AsyncHandler.HandleCallAsync(op, body, done)
}

func (h *trippedSession) Close() error {
	if c, ok := h.AsyncHandler.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// tenantData is one tenant's 64 bytes, written through a queue on the
// first node its context spans.
type tenantData struct {
	name string
	ctx  *core.Context
	q    *core.Queue
	buf  *core.Buffer
	want []byte
}

func openTenant(t *testing.T, rt *core.Runtime, tenant string, nodes ...string) tenantData {
	t.Helper()
	var devs []*core.DeviceRef
	for _, name := range nodes {
		for _, d := range rt.Devices(0) {
			if d.Node().Name() == name {
				devs = append(devs, d)
			}
		}
	}
	ctx, err := rt.OpenSession(tenant).CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	td := tenantData{name: tenant, ctx: ctx, want: bytes.Repeat([]byte(tenant), 64/len(tenant))}
	if td.q, err = ctx.CreateQueue(devs[0]); err != nil {
		t.Fatal(err)
	}
	if td.buf, err = ctx.CreateBuffer(int64(len(td.want))); err != nil {
		t.Fatal(err)
	}
	if _, err := td.q.EnqueueWrite(td.buf, 0, td.want); err != nil {
		t.Fatal(err)
	}
	if _, err := td.q.Finish(); err != nil {
		t.Fatal(err)
	}
	return td
}

// read reads the tenant's bytes back and compares them.
func (td tenantData) read() error {
	got, _, err := td.q.EnqueueRead(td.buf, 0, int64(len(td.want)))
	if err != nil {
		return fmt.Errorf("tenant %s: read: %w", td.name, err)
	}
	if !bytes.Equal(got, td.want) {
		return fmt.Errorf("tenant %s read %q, want %q", td.name, got, td.want)
	}
	return nil
}

func (td tenantData) mustHold(t *testing.T) {
	t.Helper()
	if err := td.read(); err != nil {
		t.Fatal(err)
	}
}

// TestSecondDeathKeepsBystanderBytes kills a second node while recovery
// replays the first one's tenants. Tenant A spans all three nodes and B
// only the first and third, so the second death does not touch B. Each
// tenant catches up on its own: A's failure sends A alone back to the
// membership step, and B — replayed before or after A, depending on which
// session was opened first — still reads its bytes. The node dies at A's
// re-placed queue (CreateQueue) or at A's replay allocating a replica
// (CreateBuffer).
func TestSecondDeathKeepsBystanderBytes(t *testing.T) {
	for _, tc := range []struct {
		name          string
		op            protocol.Op
		bystanderOpen bool // B's session is opened before A's
	}{
		{"CreateBuffer/A-opened-first", protocol.OpCreateBuffer, false},
		{"CreateBuffer/B-opened-first", protocol.OpCreateBuffer, true},
		{"CreateQueue/A-opened-first", protocol.OpCreateQueue, false},
		{"CreateQueue/B-opened-first", protocol.OpCreateQueue, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc := startChaosCluster(t, 3)
			t.Cleanup(cc.close)
			n1, n2, n3 := cc.cfg.Nodes[0].Name, cc.cfg.Nodes[1].Name, cc.cfg.Nodes[2].Name
			var a, b tenantData
			if tc.bystanderOpen {
				b = openTenant(t, cc.rt, "B", n1, n3)
				a = openTenant(t, cc.rt, "A", n1, n2, n3)
			} else {
				a = openTenant(t, cc.rt, "A", n1, n2, n3)
				b = openTenant(t, cc.rt, "B", n1, n3)
			}
			w := cc.trips[n2]
			w.arm(tc.op, func(func(), func(protocol.Message, error)) { go w.crash() })

			cc.kill(n1)
			cc.awaitDown(n1)
			if err := cc.rt.Recover(); err != nil {
				t.Fatalf("recover from %s's death: %v", n1, err)
			}
			cc.awaitDown(n2) // the trip fired during that recovery
			cc.kill(n2)
			if err := cc.rt.Recover(); err != nil {
				t.Fatalf("recover from %s's death: %v", n2, err)
			}
			b.mustHold(t)
			a.mustHold(t)
		})
	}
}

// TestCensusRaceDeathDuringRebind has a node fail in the middle of the
// catch-up of a tenant spanning all three nodes: the write lives on the
// second node and the increment ran on the third, so the replay needs a
// push from the second to the third. When the first node dies, recovery
// re-places its queue on the second; there the second node's tripwire
// either kills the third node and holds the answer until the host has
// seen that death (a death between the membership step and the replay),
// or answers the replay's push with an error, once or every time. A death
// sends the tenant back to the membership step and the next read returns
// the incremented bytes. A refused push fails the catch-up; the tenant's
// next read tries it once more, so a push refused once costs no read, and
// pushes refused every time fail the reads with one more replay in all. A
// read that succeeds never returns pre-replay bytes.
func TestCensusRaceDeathDuringRebind(t *testing.T) {
	for _, tc := range []struct {
		name             string
		death, refuseAll bool
	}{
		{"death", true, false},
		{"refused-push", false, false},
		{"refused-pushes", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc := startChaosCluster(t, 3)
			t.Cleanup(cc.close)
			n1, n2, n3 := cc.cfg.Nodes[0].Name, cc.cfg.Nodes[1].Name, cc.cfg.Nodes[2].Name
			_, k, qs, bufs := chaosObjects(t, cc.rt, 1, 16)
			buf := bufs[0]
			if _, err := qs[1].EnqueueWrite(buf, 0, mem.F32Bytes([]float32{1, 2, 3, 4})); err != nil {
				t.Fatal(err)
			}
			if err := k.SetArg(0, buf); err != nil {
				t.Fatal(err)
			}
			if err := k.SetArg(1, int32(4)); err != nil {
				t.Fatal(err)
			}
			if _, err := qs[2].EnqueueKernel(k, []int{4}, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := qs[2].Finish(); err != nil {
				t.Fatal(err)
			}

			var seen atomic.Bool
			if tc.death {
				cc.trips[n2].arm(protocol.OpCreateQueue, func(forward func(), _ func(protocol.Message, error)) {
					cc.trips[n3].crash()
					seen.Store(seenDown(cc.rt, n3))
					forward()
				})
			} else {
				var refuse func(func(), func(protocol.Message, error))
				refuse = func(_ func(), done func(protocol.Message, error)) {
					seen.Store(true)
					if tc.refuseAll {
						cc.trips[n2].arm(protocol.OpPushRange, refuse)
					}
					done(nil, &protocol.RemoteError{Code: protocol.CodeInternal, Message: "push refused"})
				}
				cc.trips[n2].arm(protocol.OpPushRange, refuse)
			}
			cc.kill(n1)
			cc.awaitDown(n1)
			err := cc.rt.Recover()
			if !seen.Load() {
				t.Fatalf("the tripwire on %s did not fire as planned (recover: %v)", n2, err)
			}
			if tc.death {
				cc.kill(n3)
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
			}
			// A catch-up that failed hard gets one more try at the epoch, at
			// the tenant's next synchronization, and no replay after that.
			retries := 0
			for read := 1; read <= 3; read++ {
				replays := cc.rt.Metrics().ReplayedCommands
				data, _, err := qs[1].EnqueueRead(buf, 0, 16)
				if cc.rt.Metrics().ReplayedCommands != replays {
					retries++
				}
				switch {
				case err == nil:
					if got, want := mem.BytesF32(data), []float32{2, 3, 4, 5}; !slices.Equal(got, want) {
						t.Fatalf("read %d: %v, want %v", read, got, want)
					}
				case tc.death || !tc.refuseAll && read >= 2:
					t.Fatalf("read %d: %v", read, err)
				}
			}
			if retries > 1 {
				t.Fatalf("%d reads at one epoch replayed the log, want at most 1", retries)
			}
		})
	}
}

// TestTenantFailureStaysItsOwn gives tenant A a queue whose genuine
// failure (an out-of-bounds launch) is latched before a crash, next to a
// tenant B on the same nodes. A's replay repeats the failure, which is not
// the replay's own: recovery and the rejoin succeed, B reads its bytes, and
// A's queue still reports its failure at the next synchronization.
func TestTenantFailureStaysItsOwn(t *testing.T) {
	cc := startChaosCluster(t, 2)
	t.Cleanup(cc.close)
	n1, n2 := cc.cfg.Nodes[0].Name, cc.cfg.Nodes[1].Name
	a := openTenant(t, cc.rt, "A", n1, n2)
	b := openTenant(t, cc.rt, "B", n1, n2)
	prog, err := a.ctx.CreateProgram(incrSource)
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
	scratch, err := a.ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(0, scratch); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, int32(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.q.EnqueueKernel(k, []int{8}, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.q.Finish(); err == nil {
		t.Fatal("out-of-bounds launch accepted")
	}

	cc.kill(n1)
	cc.awaitDown(n1)
	if err := cc.rt.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	b.mustHold(t)
	if _, err := a.q.Finish(); err == nil {
		t.Fatal("tenant A's failure vanished in recovery")
	}
	cc.restart(n1)
	b.mustHold(t)
}

// TestBystanderNotGatedByReplay holds tenant A's catch-up at its re-placed
// queue while tenant B, which never touched the dead node, issues
// commands: B passes the membership step at once and does not wait for
// A's replay.
func TestBystanderNotGatedByReplay(t *testing.T) {
	cc := startChaosCluster(t, 3)
	t.Cleanup(cc.close)
	n1, n2, n3 := cc.cfg.Nodes[0].Name, cc.cfg.Nodes[1].Name, cc.cfg.Nodes[2].Name
	a := openTenant(t, cc.rt, "A", n1, n2)
	b := openTenant(t, cc.rt, "B", n3)
	held, release := make(chan struct{}), make(chan struct{})
	cc.trips[n2].arm(protocol.OpCreateQueue, func(forward func(), _ func(protocol.Message, error)) {
		close(held)
		go func() {
			<-release
			forward()
		}()
	})

	cc.kill(n1)
	cc.awaitDown(n1)
	recovered := make(chan error, 1)
	go func() { recovered <- cc.rt.Recover() }()
	select {
	case <-held:
	case err := <-recovered:
		t.Fatalf("recovery never re-placed A's queue on %s (recover: %v)", n2, err)
	}
	done := make(chan error, 1)
	go func() { done <- b.read() }()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("tenant B waited for tenant A's replay")
	}
	close(release)
	if err := <-recovered; err != nil {
		t.Fatalf("recover: %v", err)
	}
	a.mustHold(t)
}
