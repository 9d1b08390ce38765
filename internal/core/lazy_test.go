package core_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/cluster/inproc"
	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/transport"
)

// The first use of a buffer or a kernel on a node creates it there lazily
// (DESIGN.md §2): the host names the object and sends the create without
// waiting, and the command that needed it names it right behind.

// replyGate sits in front of every session of one node. Requests of an op
// in hold reach the node at once, so they take effect in wire order, but
// their replies wait until open is called; requests of an op in refuse
// never reach the node and are answered with that error code — at once,
// or at open if the op is held too. set changes the rules midway. The gate
// records the object ID every create names, in arrival order.
type replyGate struct {
	mu      sync.Mutex
	hold    map[protocol.Op]bool   // guarded by mu
	refuse  map[protocol.Op]uint32 // guarded by mu
	release chan struct{}          // guarded by mu
	created []createdObject        // guarded by mu
	held    atomic.Int32
	closed  atomic.Int32   // sessions closed
	pending sync.WaitGroup // held replies not yet delivered
}

func newReplyGate(hold map[protocol.Op]bool, refuse map[protocol.Op]uint32) *replyGate {
	g := new(replyGate)
	g.set(hold, refuse)
	return g
}

// set replaces the gate's rules. Replies held so far stay held until open.
func (g *replyGate) set(hold map[protocol.Op]bool, refuse map[protocol.Op]uint32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hold, g.refuse = hold, refuse
	if g.release == nil {
		g.release = make(chan struct{})
	}
}

// open delivers the held replies and lifts the hold rules: every later
// reply goes at once, until set holds again.
func (g *replyGate) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.release != nil {
		close(g.release)
		g.release = nil
	}
	g.hold = nil
}

type gatedSession struct {
	transport.AsyncHandler
	g *replyGate
}

// createdObject is one create a replyGate saw: its op and the object ID
// the host named.
type createdObject struct {
	op protocol.Op
	id uint64
}

// createdID decodes the object ID a create request names; ok is false for
// any other op.
func createdID(op protocol.Op, body []byte) (id uint64, ok bool, err error) {
	switch op {
	case protocol.OpCreateContext:
		var r protocol.CreateContextReq
		err, id = protocol.DecodeMessage(&r, body), r.ID
	case protocol.OpCreateQueue:
		var r protocol.CreateQueueReq
		err, id = protocol.DecodeMessage(&r, body), r.ID
	case protocol.OpCreateBuffer:
		var r protocol.CreateBufferReq
		err, id = protocol.DecodeMessage(&r, body), r.ID
	case protocol.OpBuildProgram:
		var r protocol.BuildProgramReq
		err, id = protocol.DecodeMessage(&r, body), r.ID
	case protocol.OpCreateKernel:
		var r protocol.CreateKernelReq
		err, id = protocol.DecodeMessage(&r, body), r.ID
	default:
		return 0, false, nil
	}
	return id, true, err
}

func (s *gatedSession) HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error)) {
	g := s.g
	id, isCreate, err := createdID(op, body)
	if err != nil {
		done(nil, err)
		return
	}
	g.mu.Lock()
	if isCreate {
		g.created = append(g.created, createdObject{op, id})
	}
	code, refused := g.refuse[op]
	held, release := g.hold[op], g.release
	g.mu.Unlock()
	reply := done
	if held {
		g.held.Add(1)
		g.pending.Add(1)
		reply = func(resp protocol.Message, err error) {
			go func() {
				defer g.pending.Done()
				<-release
				done(resp, err)
			}()
		}
	}
	if refused {
		reply(nil, &protocol.RemoteError{Op: op, Code: code, Message: "refused by the test's gate"})
		return
	}
	s.AsyncHandler.HandleCallAsync(op, body, reply)
}

func (s *gatedSession) Close() error {
	s.g.closed.Add(1)
	return s.AsyncHandler.(interface{ Close() error }).Close()
}

// serveGated serves cfg's nodes, node i behind gates[i] (none if nil or
// missing). Cleanup opens the gates before the nodes stop, and waits for
// every held reply after.
func serveGated(t *testing.T, cfg *cluster.Config, gates ...*replyGate) *inproc.Nodes {
	t.Helper()
	t.Cleanup(func() {
		for _, g := range gates {
			if g != nil {
				g.pending.Wait()
			}
		}
	})
	nodes := serveNodes(t, cfg, inproc.Options{Wrap: func(i int, h transport.Handler) transport.Handler {
		if i < len(gates) && gates[i] != nil {
			return &gatedSession{AsyncHandler: h.(transport.AsyncHandler), g: gates[i]}
		}
		return h
	}})
	t.Cleanup(func() { openAll(gates) })
	return nodes
}

// connectGated connects a runtime to the nodes serveGated serves. Cleanup
// opens the gates before it closes the runtime, whose releases may wait
// for held creates.
func connectGated(t *testing.T, nodes *inproc.Nodes, gates ...*replyGate) *core.Runtime {
	t.Helper()
	rt := connect(t, nodes)
	t.Cleanup(func() { openAll(gates) })
	return rt
}

func openAll(gates []*replyGate) {
	for _, g := range gates {
		if g != nil {
			g.open()
		}
	}
}

// startGatedRuntime connects a runtime to one GPU node behind g and opens
// a context on it with one queue, the incr program built, its kernel and
// an 8-byte buffer bound as its first argument. Nothing has been created
// on the node for the buffer or the kernel yet.
func startGatedRuntime(t *testing.T, g *replyGate) (*core.Session, *core.Queue, *core.Kernel, *core.Buffer) {
	t.Helper()
	cfg := cluster.Synthetic("gated", 0, 1, 0, nil)
	rt := connectGated(t, serveGated(t, cfg, g), g)
	devs := rt.Devices(0)
	sess := rt.OpenSession("lazy")
	ctx, err := sess.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	k, buf := incrKernel(t, ctx, 8), mustBuffer(t, ctx, 8)
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	return sess, q, k, buf
}

// incrKernel builds the incr program in ctx and returns its kernel, set to
// run over the first n/4 floats of whatever buffer is bound as argument 0.
func incrKernel(t *testing.T, ctx *core.Context, n int) *core.Kernel {
	t.Helper()
	prog := buildIncr(t, ctx)
	k := incrKernelOf(t, prog)
	if err := k.SetArg(1, int32(n/4)); err != nil {
		t.Fatal(err)
	}
	return k
}

// mustBuffer creates an n-byte buffer in ctx.
func mustBuffer(t *testing.T, ctx *core.Context, n int64) *core.Buffer {
	t.Helper()
	buf, err := ctx.CreateBuffer(n)
	if err != nil {
		t.Fatal(err)
	}
	return buf
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
	_, q, k, buf := startGatedRuntime(t, g)

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
// own error, with its remote code. Nothing hangs. The refused object left
// nothing on the node to release, so releasing it — after Finish, or before
// the refusal was even answered — adds no error: Flush returns nil.
func TestRefusedLazyCreateSurfacesAtSync(t *testing.T) {
	for _, tc := range []struct {
		op    protocol.Op
		code  uint32
		early bool // release before the refusal is answered
	}{
		{protocol.OpCreateBuffer, protocol.CodeDeviceBusy, false},
		{protocol.OpCreateKernel, protocol.CodeBuildFailed, false},
		{protocol.OpCreateBuffer, protocol.CodeDeviceBusy, true},
		{protocol.OpCreateKernel, protocol.CodeBuildFailed, true},
	} {
		name := tc.op.String()
		if tc.early {
			name += "/release-before-answer"
		}
		t.Run(name, func(t *testing.T) {
			g := newReplyGate(nil, map[protocol.Op]uint32{tc.op: tc.code})
			sess, q, k, buf := startGatedRuntime(t, g)
			if tc.early {
				g.set(map[protocol.Op]bool{tc.op: true}, map[protocol.Op]uint32{tc.op: tc.code})
			}
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
			release := func() error {
				if err := buf.Release(); err != nil {
					return err
				}
				return k.Release()
			}
			if tc.early {
				if err := within(t, 10*time.Second, "Release before the create's answer", release); err != nil {
					t.Fatalf("Release: %v", err)
				}
				g.open()
			}
			err = within(t, 10*time.Second, "Finish", func() error {
				_, err := q.Finish()
				return err
			})
			var re *protocol.RemoteError
			if !errors.As(err, &re) || re.Op != tc.op || re.Code != tc.code {
				t.Fatalf("Finish: %v, want the refused %s's error (code %d)", err, tc.op, tc.code)
			}
			if !tc.early {
				if err := release(); err != nil {
					t.Fatalf("Release: %v", err)
				}
			}
			if err := within(t, 10*time.Second, "Flush", sess.Flush); err != nil {
				t.Fatalf("Flush after releasing the refused objects: %v, want nil", err)
			}
		})
	}
}

// gatedPair connects a runtime to two GPU nodes, the second behind g, and
// opens a context over both with user queues on each: q0 on gpu-00, and
// qs on gpu-01. The incr kernel is built and bound to an 8-byte buffer.
// Nothing more is created when it returns: g's rules are set after it.
func gatedPair(t *testing.T, g *replyGate, qs int) (sess *core.Session, q0 *core.Queue, q1 []*core.Queue, k *core.Kernel, buf *core.Buffer) {
	t.Helper()
	cfg := cluster.Synthetic("gated", 0, 2, 0, nil)
	rt := connectGated(t, serveGated(t, cfg, nil, g), g)
	devs := rt.Devices(0)
	sess = rt.OpenSession("migrate")
	ctx, err := sess.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	if q0, err = ctx.CreateQueue(devs[0]); err != nil {
		t.Fatal(err)
	}
	for range qs {
		q, err := ctx.CreateQueue(devs[1])
		if err != nil {
			t.Fatal(err)
		}
		q1 = append(q1, q)
	}
	k, buf = incrKernel(t, ctx, 8), mustBuffer(t, ctx, 8)
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	return sess, q0, q1, k, buf
}

// TestMigrationDoesNotWaitForServiceQueue: with gpu-01's CreateQueue
// replies held, a launch there on a buffer written on gpu-00 migrates it
// through a service queue whose create is unanswered, and still returns.
// Finish settles the create, so it returns once the reply is released, and
// the bytes read back are the write's, incremented on gpu-01.
func TestMigrationDoesNotWaitForServiceQueue(t *testing.T) {
	g := newReplyGate(nil, nil)
	_, q0, q1, k, buf := gatedPair(t, g, 1)
	g.set(map[protocol.Op]bool{protocol.OpCreateQueue: true}, nil)

	err := within(t, 10*time.Second, "the launch that migrates onto gpu-01", func() error {
		if _, err := q0.EnqueueWrite(buf, 0, mem.F32Bytes([]float32{1, 2})); err != nil {
			return err
		}
		_, err := q1[0].EnqueueKernel(k, []int{2}, nil, nil, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	finished := make(chan error, 1)
	go func() {
		_, err := q1[0].Finish()
		finished <- err
	}()
	select {
	case err := <-finished:
		t.Fatalf("Finish returned (%v) while the service queue's create was unanswered", err)
	case <-time.After(20 * time.Millisecond):
	}
	g.open()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Finish did not return after the service queue's create was answered")
	}
	if n := g.held.Load(); n != 1 {
		t.Fatalf("gpu-01 held %d CreateQueue replies, want 1 (its service queue's)", n)
	}
	data, _, err := q1[0].EnqueueRead(buf, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.BytesF32(data); got[0] != 2 || got[1] != 3 {
		t.Fatalf("read %v after write [1 2] on gpu-00 and one incr on gpu-01, want [2 3]", got)
	}
}

// TestRefusedServiceQueueSurfacesAtSync: gpu-01 refuses its service
// queue's create. The launch that needed the migration returns nil, and the
// next Finish reports the CreateQueue's own code. A later migration onto
// gpu-01 fails the same way instead of hanging, and the session still
// flushes.
func TestRefusedServiceQueueSurfacesAtSync(t *testing.T) {
	g := newReplyGate(nil, nil)
	sess, q0, q1, k, buf := gatedPair(t, g, 2)
	g.set(nil, map[protocol.Op]uint32{protocol.OpCreateQueue: protocol.CodeDeviceBusy})

	for i, q := range q1 {
		err := within(t, 10*time.Second, "the launch that migrates onto gpu-01", func() error {
			if _, err := q0.EnqueueWrite(buf, 0, mem.F32Bytes([]float32{1, float32(i)})); err != nil {
				return err
			}
			_, err := q.EnqueueKernel(k, []int{2}, nil, nil, nil)
			return err
		})
		if err != nil {
			t.Fatalf("migration %d: %v, want nil: the refusal surfaces at Finish", i, err)
		}
		err = within(t, 10*time.Second, "Finish", func() error {
			_, err := q.Finish()
			return err
		})
		var re *protocol.RemoteError
		if !errors.As(err, &re) || re.Op != protocol.OpCreateQueue || re.Code != protocol.CodeDeviceBusy {
			t.Fatalf("migration %d: Finish: %v, want the refused CreateQueue's error (code %d)",
				i, err, protocol.CodeDeviceBusy)
		}
	}
	if err := within(t, 10*time.Second, "Flush", sess.Flush); err != nil {
		t.Fatalf("Flush: %v, want nil", err)
	}
}

// TestPerNodeCreatesGoOutTogether: Connect, CreateContext and Build send
// every node its request before they wait for any reply, so all three
// nodes hold theirs at once. A failure is still the first in node order,
// named by its node; the build log is every node's in node order; and a
// Connect that fails closes every connection it dialed.
func TestPerNodeCreatesGoOutTogether(t *testing.T) {
	cfg := cluster.Synthetic("gated", 1, 2, 0, nil) // cpu-00, gpu-00, gpu-01
	gates := []*replyGate{newReplyGate(nil, nil), newReplyGate(nil, nil), newReplyGate(nil, nil)}
	nodes := serveGated(t, cfg, gates...)

	// together runs f with op's replies held on every node, and fails the
	// test unless all three nodes hold one before any is released.
	together := func(op protocol.Op, f func() error) error {
		t.Helper()
		for _, g := range gates {
			g.set(map[protocol.Op]bool{op: true}, nil)
		}
		done := make(chan error, 1)
		go func() { done <- f() }()
		deadline := time.Now().Add(10 * time.Second)
		for i := 0; i < len(gates); {
			select {
			case err := <-done:
				t.Fatalf("%s returned (%v) with its replies held", op, err)
			default:
			}
			if gates[i].held.Load() > 0 {
				i++
				continue
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: node %d holds no request while node 0's reply is held", op, i)
			}
			time.Sleep(time.Millisecond)
		}
		for _, g := range gates {
			g.held.Store(0)
			g.open()
		}
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return once its replies were released", op)
			return nil
		}
	}

	var rt *core.Runtime
	if err := together(protocol.OpHello, func() (err error) {
		rt, err = core.Connect(core.Options{Config: cfg, Dialer: nodes.Dialer, ClientName: "fan-out"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	sess := rt.OpenSession("fan-out")
	devs := rt.Devices(0)
	var ctx *core.Context
	if err := together(protocol.OpCreateContext, func() (err error) {
		ctx, err = sess.CreateContext(devs)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgram(incrSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := together(protocol.OpBuildProgram, prog.Build); err != nil {
		t.Fatal(err)
	}
	var want string
	for _, d := range devs { // one device per node, in node order
		one, err := sess.CreateContext([]*core.DeviceRef{d})
		if err != nil {
			t.Fatal(err)
		}
		p := buildIncr(t, one)
		want += p.BuildLog()
	}
	if got := prog.BuildLog(); got != want {
		t.Fatalf("BuildLog:\n%q\nwant every node's log in node order:\n%q", got, want)
	}

	// Node 2 refuses: the call fails naming it.
	last := cfg.Nodes[2].Name
	gates[2].set(nil, map[protocol.Op]uint32{protocol.OpCreateContext: protocol.CodeDeviceBusy})
	if _, err := sess.CreateContext(devs); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", last)) {
		t.Fatalf("CreateContext with %s refusing: %v, want an error naming %s", last, err, last)
	}
	gates[2].set(nil, map[protocol.Op]uint32{protocol.OpBuildProgram: protocol.CodeBuildFailed})
	p2, err := ctx.CreateProgram(incrSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Build(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", last)) {
		t.Fatalf("Build with %s refusing: %v, want an error naming %s", last, err, last)
	}

	// A refused Hello fails Connect, which closes every connection it dialed.
	before := make([]int32, len(gates))
	for i, g := range gates {
		before[i] = g.closed.Load()
	}
	gates[1].set(nil, map[protocol.Op]uint32{protocol.OpHello: protocol.CodeUnsupported})
	if _, err := core.Connect(core.Options{Config: cfg, Dialer: nodes.Dialer, ClientName: "refused"}); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("%q", cfg.Nodes[1].Name)) {
		t.Fatalf("Connect with %s refusing the Hello: %v, want an error naming it", cfg.Nodes[1].Name, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for i, g := range gates {
		for g.closed.Load() == before[i] {
			if time.Now().After(deadline) {
				t.Fatalf("node %d's connection from the failed Connect is still open", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestObjectNamedOnceAcrossNodes: the host names each object once, and
// every node it is created on files it under that name (DESIGN.md §2). A
// context over two nodes, its build, and a buffer and a kernel used on
// both carry one ID each on both nodes; queues, user and service, carry
// their own; no two objects share an ID. gpu-01 gets one queue more than
// gpu-00 before the buffer's first use there, so IDs counted per
// connection would disagree.
func TestObjectNamedOnceAcrossNodes(t *testing.T) {
	cfg := cluster.Synthetic("gated", 0, 2, 0, nil)
	gates := []*replyGate{newReplyGate(nil, nil), newReplyGate(nil, nil)}
	rt := connectGated(t, serveGated(t, cfg, gates...), gates...)
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("names").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	var qs []*core.Queue
	for _, d := range []*core.DeviceRef{devs[0], devs[1], devs[1]} {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	k, buf := incrKernel(t, ctx, 8), mustBuffer(t, ctx, 8)
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := qs[0].EnqueueWrite(buf, 0, mem.F32Bytes([]float32{1, 2})); err != nil {
		t.Fatal(err)
	}
	for _, q := range []*core.Queue{qs[0], qs[2]} { // the second migrates
		if _, err := q.EnqueueKernel(k, []int{2}, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	data, _, err := qs[2].EnqueueRead(buf, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.BytesF32(data); got[0] != 3 || got[1] != 4 {
		t.Fatalf("read %v after write [1 2] and two incr, want [3 4]", got)
	}

	perNode := make([]map[protocol.Op][]uint64, len(gates))
	owner := map[uint64]string{} // ID → the object it names
	for i, g := range gates {
		g.mu.Lock()
		created := slices.Clone(g.created)
		g.mu.Unlock()
		perNode[i] = map[protocol.Op][]uint64{}
		for _, c := range created {
			perNode[i][c.op] = append(perNode[i][c.op], c.id)
			obj := c.op.String()
			if c.op == protocol.OpCreateQueue { // a queue lives on one node
				obj = fmt.Sprintf("%s on %s", obj, cfg.Nodes[i].Name)
			}
			if prev, ok := owner[c.id]; ok && prev != obj {
				t.Errorf("ID %d names both %s and %s", c.id, prev, obj)
			}
			owner[c.id] = obj
		}
	}
	for _, op := range []protocol.Op{protocol.OpCreateContext, protocol.OpBuildProgram,
		protocol.OpCreateBuffer, protocol.OpCreateKernel} {
		a, b := perNode[0][op], perNode[1][op]
		if len(a) != 1 || !slices.Equal(a, b) {
			t.Errorf("%s named %v on %s and %v on %s, want one ID, the same on both",
				op, a, cfg.Nodes[0].Name, b, cfg.Nodes[1].Name)
		}
	}
	if q0, q1 := perNode[0][protocol.OpCreateQueue], perNode[1][protocol.OpCreateQueue]; len(q0) < 1 || len(q1) < 2 {
		t.Errorf("queue creates %v on %s and %v on %s, want the user queues at least",
			q0, cfg.Nodes[0].Name, q1, cfg.Nodes[1].Name)
	}
}
