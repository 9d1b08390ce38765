package core_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/node"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/transport"
)

// The first use of a buffer or a kernel on a node creates it there lazily
// (DESIGN.md §2): the host names the object and sends the create without
// waiting, and the command that needed it names it right behind.

// replyGate sits in front of every session of one node. Requests of an op
// in hold reach the node at once, so they take effect in wire order, but
// their replies wait until open is called; requests of an op in refuse
// never reach the node and are answered with that error code.
type replyGate struct {
	hold    map[protocol.Op]bool
	refuse  map[protocol.Op]uint32
	release chan struct{}
	once    sync.Once
	held    atomic.Int32
	pending sync.WaitGroup // held replies not yet delivered
}

func newReplyGate(hold map[protocol.Op]bool, refuse map[protocol.Op]uint32) *replyGate {
	return &replyGate{hold: hold, refuse: refuse, release: make(chan struct{})}
}

// open delivers the held replies, and every later one at once.
func (g *replyGate) open() { g.once.Do(func() { close(g.release) }) }

type gatedSession struct {
	transport.AsyncHandler
	g *replyGate
}

func (s *gatedSession) HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error)) {
	g := s.g
	if code, ok := g.refuse[op]; ok {
		done(nil, &protocol.RemoteError{Op: op, Code: code, Message: "refused by the test's gate"})
		return
	}
	if !g.hold[op] {
		s.AsyncHandler.HandleCallAsync(op, body, done)
		return
	}
	g.held.Add(1)
	g.pending.Add(1)
	s.AsyncHandler.HandleCallAsync(op, body, func(resp protocol.Message, err error) {
		go func() {
			defer g.pending.Done()
			<-g.release
			done(resp, err)
		}()
	})
}

func (s *gatedSession) Close() error {
	return s.AsyncHandler.(interface{ Close() error }).Close()
}

// startGatedRuntime connects a runtime to one GPU node behind g and opens
// a context on it with one queue, the incr program built, its kernel and
// an 8-byte buffer bound as its first argument. Nothing has been created
// on the node for the buffer or the kernel yet.
func startGatedRuntime(t *testing.T, g *replyGate) (*core.Queue, *core.Kernel, *core.Buffer) {
	t.Helper()
	cfg := cluster.Synthetic("gated", 0, 1, 0, nil)
	icd := device.NewICD()
	sim.RegisterDrivers(icd, testRegistry())
	memNet := transport.NewMemNetwork()
	ns := cfg.Nodes[0]
	devCfgs, err := ns.DeviceConfigs()
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Options{Name: ns.Name, Devices: devCfgs, ICD: icd, ExecWorkers: 1, Dialer: memNet})
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(func() transport.Handler {
		return &gatedSession{AsyncHandler: n.NewSession().(transport.AsyncHandler), g: g}
	})
	if err := memNet.Register(ns.Addr, srv); err != nil {
		t.Fatal(err)
	}
	rt, err := core.Connect(core.Options{Config: cfg, Dialer: memNet, ClientName: "gated"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.open()
		rt.Close()
		srv.Close()
		g.pending.Wait()
	})
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("lazy").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(devs[0])
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
	buf, err := ctx.CreateBuffer(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, int32(2)); err != nil {
		t.Fatal(err)
	}
	return q, k, buf
}

// within runs f on its own goroutine and returns its error, failing the
// test if f has not returned after d.
func within(t *testing.T, d time.Duration, what string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
		return nil
	}
}

// TestLazyCreatesDoNotWait: with the node's replies to CreateBuffer and
// CreateKernel held back, the first write to a buffer and the first launch
// of a kernel on the node still return, the launch naming both objects.
// Finish settles the creates, so it returns once the replies are released,
// and the launch ran on the bytes the write put there.
func TestLazyCreatesDoNotWait(t *testing.T) {
	g := newReplyGate(map[protocol.Op]bool{protocol.OpCreateBuffer: true, protocol.OpCreateKernel: true}, nil)
	q, k, buf := startGatedRuntime(t, g)

	err := within(t, 10*time.Second, "the first write and launch on the node", func() error {
		if _, err := q.EnqueueWrite(buf, 0, mem.F32Bytes([]float32{1, 2})); err != nil {
			return err
		}
		_, err := q.EnqueueKernel(k, []int{2}, nil, nil, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	finished := make(chan error, 1)
	go func() {
		_, err := q.Finish()
		finished <- err
	}()
	select {
	case err := <-finished:
		t.Fatalf("Finish returned (%v) while the creates' replies were held", err)
	case <-time.After(20 * time.Millisecond):
	}
	g.open()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Finish did not return after the creates' replies were released")
	}
	if n := g.held.Load(); n != 2 {
		t.Fatalf("the gate held %d create replies, want 2 (the buffer's and the kernel's)", n)
	}
	data, _, err := q.EnqueueRead(buf, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.BytesF32(data); got[0] != 2 || got[1] != 3 {
		t.Fatalf("read %v after write [1 2] and one incr, want [2 3]", got)
	}
}

// TestRefusedLazyCreateSurfacesAtSync: the node refuses a lazy create. The
// enqueue that sent it returns nil, as it did not wait; the command naming
// the object fails on the node, and the next Finish reports the create's
// own error, with its remote code. Nothing hangs.
func TestRefusedLazyCreateSurfacesAtSync(t *testing.T) {
	for _, tc := range []struct {
		op   protocol.Op
		code uint32
	}{
		{protocol.OpCreateBuffer, protocol.CodeDeviceBusy},
		{protocol.OpCreateKernel, protocol.CodeBuildFailed},
	} {
		t.Run(tc.op.String(), func(t *testing.T) {
			g := newReplyGate(nil, map[protocol.Op]uint32{tc.op: tc.code})
			q, k, buf := startGatedRuntime(t, g)
			err := within(t, 10*time.Second, "the enqueues", func() error {
				if _, err := q.EnqueueWrite(buf, 0, mem.F32Bytes([]float32{1, 2})); err != nil {
					return fmt.Errorf("write: %w", err)
				}
				if _, err := q.EnqueueKernel(k, []int{2}, nil, nil, nil); err != nil {
					return fmt.Errorf("launch: %w", err)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%v, want nil: a refused create surfaces at the next synchronization point", err)
			}
			err = within(t, 10*time.Second, "Finish", func() error {
				_, err := q.Finish()
				return err
			})
			var re *protocol.RemoteError
			if !errors.As(err, &re) || re.Op != tc.op || re.Code != tc.code {
				t.Fatalf("Finish: %v, want the refused %s's error (code %d)", err, tc.op, tc.code)
			}
		})
	}
}
