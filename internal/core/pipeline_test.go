package core_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/cluster/inproc"
	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/mem"
)

// TestPipelinedInOrderPerQueue issues a write and a burst of kernels on one
// queue without touching any event until the whole burst is on the wire:
// in-order queue semantics must hold in virtual time exactly as they did
// under the synchronous protocol.
func TestPipelinedInOrderPerQueue(t *testing.T) {
	rt := startRuntime(t, 1)

	ctx, err := rt.OpenSession("default").CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	prog := buildIncr(t, ctx)
	q, err := ctx.CreateQueue(rt.Devices(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(8)
	if err != nil {
		t.Fatal(err)
	}
	k := incrKernelOf(t, prog)
	k.SetArg(0, buf)
	k.SetArg(1, int32(2))

	const launches = 8
	events := make([]*core.Event, 0, launches+1)
	wev, err := q.EnqueueWrite(buf, 0, mem.F32Bytes([]float32{0, 0}))
	if err != nil {
		t.Fatal(err)
	}
	events = append(events, wev)
	for i := 0; i < launches; i++ {
		ev, err := q.EnqueueKernel(k, []int{2}, nil, nil, nil)
		if err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		events = append(events, ev)
	}

	// Synchronize once, then inspect the whole burst.
	end, err := q.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(events); i++ {
		prev, cur := events[i-1].Profile(), events[i].Profile()
		if cur.Start < prev.End {
			t.Fatalf("command %d overlapped predecessor: %+v vs %+v", i, cur, prev)
		}
	}
	if last := events[len(events)-1].End(); end < last {
		t.Fatalf("finish time %v before last command end %v", end, last)
	}

	data, _, err := q.EnqueueRead(buf, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.BytesF32(data); got[0] != launches || got[1] != launches {
		t.Fatalf("after %d pipelined incr: %v", launches, got)
	}
}

// TestConcurrentPipelinedEnqueues hammers the pipeline from many
// goroutines across many queues and nodes at once; it exists to fail under
// -race if any issue-path state is unsynchronized, and to prove each
// queue's chain stays functionally in order despite the concurrency.
func TestConcurrentPipelinedEnqueues(t *testing.T) {
	const (
		nodes       = 3
		perDevice   = 2 // concurrent queues per device
		launchesPer = 8
	)
	rt := startRuntime(t, nodes)

	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	prog := buildIncr(t, ctx)

	var wg sync.WaitGroup
	errs := make(chan error, nodes*perDevice)
	for _, dev := range devs {
		for w := 0; w < perDevice; w++ {
			wg.Add(1)
			go func(dev *core.DeviceRef) {
				defer wg.Done()
				q, err := ctx.CreateQueue(dev)
				if err != nil {
					errs <- err
					return
				}
				buf, err := ctx.CreateBuffer(8)
				if err != nil {
					errs <- err
					return
				}
				k, err := prog.CreateKernel("incr")
				if err != nil {
					errs <- err
					return
				}
				k.SetArg(0, buf)
				k.SetArg(1, int32(2))
				if _, err := q.EnqueueWrite(buf, 0, mem.F32Bytes([]float32{0, 0})); err != nil {
					errs <- err
					return
				}
				for i := 0; i < launchesPer; i++ {
					if _, err := q.EnqueueKernel(k, []int{2}, nil, nil, nil); err != nil {
						errs <- err
						return
					}
				}
				data, _, err := q.EnqueueRead(buf, 0, 8)
				if err != nil {
					errs <- err
					return
				}
				if got := mem.BytesF32(data); got[0] != launchesPer {
					errs <- &orderError{got: got[0]}
					return
				}
				if _, err := q.Finish(); err != nil {
					errs <- err
				}
			}(dev)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// All responses drained: the metrics must balance.
	m := rt.Metrics()
	if m.Makespan <= 0 || m.TotalCompute() <= 0 {
		t.Fatalf("metrics after concurrent run: %+v", m)
	}
}

type orderError struct{ got float32 }

func (e *orderError) Error() string {
	return fmt.Sprintf("pipelined chain lost commands: buffer holds %v", e.got)
}

// TestNodeDeathFailsPipelineSticky kills a node with commands in flight:
// every affected future must fail, the queue error must be sticky, and
// Finish must surface it.
func TestNodeDeathFailsPipelineSticky(t *testing.T) {
	nodes := serveNodes(t, cluster.Synthetic("pipeline-test", 0, 1, 0, nil), inproc.Options{})
	rt := connect(t, nodes)

	ctx, err := rt.OpenSession("default").CreateContext(rt.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(rt.Devices(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	// Establish the replica and drain so the next write is pure pipeline.
	if _, err := q.EnqueueWrite(buf, 0, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}

	nodes.Kill("gpu-00") // the node dies

	// The enqueue may or may not report the failure synchronously — the
	// connection teardown races with the issue — but the event and the
	// queue must observe it either way.
	ev, err := q.EnqueueWrite(buf, 0, make([]byte, 16))
	if err == nil {
		if werr := ev.Wait(); werr == nil {
			t.Fatal("command on dead node resolved successfully")
		}
	}
	if _, err := q.Finish(); err == nil {
		t.Fatal("finish on dead node's queue succeeded")
	}
	// The failure is sticky: later enqueues refuse immediately.
	if _, err := q.EnqueueWrite(buf, 0, make([]byte, 16)); err == nil {
		t.Fatal("enqueue after sticky failure accepted")
	}
}

// TestConcurrentEnqueueFinishReportsLowestIDFailure has two goroutines
// pipeline onto one queue at once, each with a failing launch in the middle
// of its stream. Their events reach the queue's in-flight list in whatever
// order the goroutines get there, yet Finish must resolve them in issue
// order and report the lowest-ID failure, every round. The window that
// lists an event ahead of an earlier-issued one is a few instructions wide,
// so every other round reverses the list to make that order certain.
func TestConcurrentEnqueueFinishReportsLowestIDFailure(t *testing.T) {
	const (
		rounds  = 8
		perSide = 12
		failAt  = perSide / 2
	)
	rt := startRuntime(t, 1)
	dev := rt.Devices(0)[0]
	ctx, err := rt.OpenSession("default").CreateContext([]*core.DeviceRef{dev})
	if err != nil {
		t.Fatal(err)
	}
	prog := buildIncr(t, ctx)
	for r := 0; r < rounds; r++ {
		q, err := ctx.CreateQueue(dev)
		if err != nil {
			t.Fatal(err)
		}
		var (
			wg     sync.WaitGroup
			events [2][]*core.Event
			errs   [2]error
		)
		for g := range events {
			buf, err := ctx.CreateBuffer(16)
			if err != nil {
				t.Fatal(err)
			}
			k := incrKernelOf(t, prog)
			k.SetArg(0, buf)
			k.SetArg(1, int32(4))
			// The same kernel told its 4-float buffer holds 8 indexes past
			// its end: the launch panics on the node, failing remotely.
			bad := incrKernelOf(t, prog)
			bad.SetArg(0, buf)
			bad.SetArg(1, int32(8))
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perSide; i++ {
					kk, global := k, []int{4}
					if i == failAt {
						kk, global = bad, []int{8}
					}
					ev, err := q.EnqueueKernel(kk, global, nil, nil, nil)
					if err != nil {
						errs[g] = err
						return
					}
					events[g] = append(events[g], ev)
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if r%2 == 1 {
			q.ReverseInflight()
		}
		_, ferr := q.Finish()
		if ferr == nil {
			t.Fatalf("round %d: Finish succeeded over failed launches", r)
		}
		var lowest *core.Event
		for _, evs := range events {
			for _, ev := range evs {
				if ev.Wait() != nil && (lowest == nil || ev.RemoteID() < lowest.RemoteID()) {
					lowest = ev
				}
			}
		}
		if lowest == nil || ferr != lowest.Wait() {
			t.Fatalf("round %d: Finish reported %v, want the lowest-ID failure %v", r, ferr, lowest.Wait())
		}
	}
}

// TestWaitLoopKeepsInflightBounded waits on every command as it goes and
// never calls Finish: the queue must not keep the resolved events listed,
// even behind a command nobody waits on.
func TestWaitLoopKeepsInflightBounded(t *testing.T) {
	const iters = 500
	rt := startRuntime(t, 1)
	dev := rt.Devices(0)[0]
	ctx, err := rt.OpenSession("default").CreateContext([]*core.DeviceRef{dev})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(dev)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ctx.CreateBuffer(16)
	b, _ := ctx.CreateBuffer(16)
	data := make([]byte, 16)
	loop := func(bound int) {
		t.Helper()
		for i := 0; i < iters; i++ {
			ev, err := q.EnqueueWrite(a, 0, data)
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.Wait(); err != nil {
				t.Fatal(err)
			}
			if n := q.InflightLen(); n > bound {
				t.Fatalf("after %d waited writes the queue lists %d events, bound %d", i+1, n, bound)
			}
		}
	}
	loop(1)
	// A write nobody waits on stays listed until a drain; the waited ones
	// behind it are compacted away whenever the list fills.
	if _, err := q.EnqueueWrite(b, 0, data); err != nil {
		t.Fatal(err)
	}
	loop(16)
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	if n := q.InflightLen(); n != 0 {
		t.Fatalf("Finish left %d events listed", n)
	}
}
