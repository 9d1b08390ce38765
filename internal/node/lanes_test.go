package node

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/sim"
)

// These tests drive the session through its asynchronous interface — the
// same entry point the transport uses — to pin down the lane dispatch
// semantics of DESIGN.md §4: registration in arrival order, per-queue
// execution order, cross-queue waits as real synchronization edges, and
// lane drain on Close. Run them with -race; that is half their value.

// asyncResult is one completed async call.
type asyncResult struct {
	msg protocol.Message
	err error
}

// goCall submits one request through the async path and returns the
// channel its completion lands on.
func goCall(s *Session, req protocol.Message) <-chan asyncResult {
	ch := make(chan asyncResult, 1)
	s.HandleCallAsync(req.Op(), protocol.EncodeMessage(req), func(m protocol.Message, err error) {
		ch <- asyncResult{m, err}
	})
	return ch
}

// mustEvent waits for an async completion and returns its EventResp.
func mustEvent(t *testing.T, ch <-chan asyncResult) *protocol.EventResp {
	t.Helper()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("async call failed: %v", r.err)
		}
		resp, ok := r.msg.(*protocol.EventResp)
		if !ok {
			t.Fatalf("response is %T, want *EventResp", r.msg)
		}
		return resp
	case <-time.After(5 * time.Second):
		t.Fatal("async call hung")
		return nil
	}
}

// twoQueueSession builds a session on a two-GPU node with one queue per
// device and one buffer per queue.
func twoQueueSession(t *testing.T) (s *Session, q1, q2, buf1, buf2 uint64) {
	t.Helper()
	n := testNode(t,
		device.Config{Driver: sim.DriverGPU, ID: 1, Shared: true},
		device.Config{Driver: sim.DriverGPU, ID: 2, Shared: true},
	)
	s = openSession(t, n, "lanes")
	ctx := call(t, s, &protocol.CreateContextReq{DeviceIDs: []int64{1, 2}}, &protocol.ObjectResp{})
	qa := call(t, s, &protocol.CreateQueueReq{ContextID: ctx.ID, DeviceID: 1}, &protocol.ObjectResp{})
	qb := call(t, s, &protocol.CreateQueueReq{ContextID: ctx.ID, DeviceID: 2}, &protocol.ObjectResp{})
	ba := call(t, s, &protocol.CreateBufferReq{ContextID: ctx.ID, Size: 64}, &protocol.ObjectResp{})
	bb := call(t, s, &protocol.CreateBufferReq{ContextID: ctx.ID, Size: 64}, &protocol.ObjectResp{})
	return s, qa.ID, qb.ID, ba.ID, bb.ID
}

// TestLaneCrossQueueWaitBlocks is the heart of the lane model: a command
// whose wait list references an event that has not even been *registered*
// yet must block on its lane — not error — and resolve once the creating
// command arrives on another queue and completes there. Under the old
// FIFO dispatch this situation was impossible by construction; under
// lanes it is the synchronization edge that keeps cross-queue dependency
// semantics intact.
func TestLaneCrossQueueWaitBlocks(t *testing.T) {
	s, q1, q2, buf1, buf2 := twoQueueSession(t)
	defer s.Close()
	data := mem.F32Bytes([]float32{1, 2, 3, 4})

	waiter := goCall(s, &protocol.WriteBufferReq{
		QueueID: q2, BufferID: buf2, Data: data,
		EventID: 200, WaitEvents: []int64{100},
	})
	select {
	case r := <-waiter:
		t.Fatalf("waiter completed before its dependency existed: %+v, %v", r.msg, r.err)
	case <-time.After(50 * time.Millisecond):
	}

	// The waiter's own event is registered (arrival order) but incomplete.
	q := call(t, s, &protocol.QueryEventReq{EventID: 200}, &protocol.QueryEventResp{})
	if q.Complete {
		t.Fatal("blocked command's event reported complete")
	}

	// The creating command arrives later, on the other queue, with a late
	// arrival instant the waiter must inherit.
	creator := mustEvent(t, goCall(s, &protocol.WriteBufferReq{
		QueueID: q1, BufferID: buf1, Data: data,
		EventID: 100, SimArrival: 500_000,
	}))
	got := mustEvent(t, waiter)
	if got.Profile.Start < creator.Profile.End {
		t.Fatalf("waiter started at %d, before its dependency completed at %d",
			got.Profile.Start, creator.Profile.End)
	}
}

// TestLanePerQueueOrdering pipelines a burst at one queue and checks the
// lane executes and completes it strictly in arrival order, with
// back-to-back device reservations.
func TestLanePerQueueOrdering(t *testing.T) {
	s, q1, _, buf1, _ := twoQueueSession(t)
	defer s.Close()
	data := mem.F32Bytes([]float32{1, 2, 3, 4})

	const burst = 32
	var mu sync.Mutex
	var order []uint64
	chans := make([]<-chan asyncResult, burst)
	for i := 0; i < burst; i++ {
		id := uint64(i + 1)
		ch := make(chan asyncResult, 1)
		s.HandleCallAsync(protocol.OpWriteBuffer, protocol.EncodeMessage(&protocol.WriteBufferReq{
			QueueID: q1, BufferID: buf1, Data: data, EventID: id,
		}), func(m protocol.Message, err error) {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			ch <- asyncResult{m, err}
		})
		chans[i] = ch
	}
	var lastEnd int64
	for i, ch := range chans {
		resp := mustEvent(t, ch)
		if resp.Profile.Start < lastEnd {
			t.Fatalf("command %d reserved [%d,...) before predecessor's end %d",
				i, resp.Profile.Start, lastEnd)
		}
		lastEnd = resp.Profile.End
	}
	mu.Lock()
	defer mu.Unlock()
	for i, id := range order {
		if id != uint64(i+1) {
			t.Fatalf("lane completion order broken at %d: event %d", i, id)
		}
	}
}

// TestLaneConcurrentQueues interleaves two queues' bursts and verifies
// both make progress with per-queue order preserved while commands from
// the other queue are in flight.
func TestLaneConcurrentQueues(t *testing.T) {
	s, q1, q2, buf1, buf2 := twoQueueSession(t)
	defer s.Close()
	data := mem.F32Bytes([]float32{9, 9, 9, 9})

	const per = 16
	type stream struct {
		queue, buf uint64
		chans      []<-chan asyncResult
	}
	streams := []*stream{{queue: q1, buf: buf1}, {queue: q2, buf: buf2}}
	var next uint64
	for i := 0; i < per; i++ {
		for _, st := range streams {
			next++
			st.chans = append(st.chans, goCall(s, &protocol.WriteBufferReq{
				QueueID: st.queue, BufferID: st.buf, Data: data, EventID: next,
			}))
		}
	}
	for _, st := range streams {
		var lastEnd int64
		for i, ch := range st.chans {
			resp := mustEvent(t, ch)
			if resp.Profile.Start < lastEnd {
				t.Fatalf("queue %d command %d out of order", st.queue, i)
			}
			lastEnd = resp.Profile.End
		}
	}
}

// TestLaneDrainOnClose closes a session with commands queued on several
// lanes, including one parked on a dependency that will never arrive:
// every completion callback must fire before Close returns, the parked
// command must fail rather than hang, and post-Close submissions must be
// refused.
func TestLaneDrainOnClose(t *testing.T) {
	s, q1, q2, buf1, buf2 := twoQueueSession(t)
	data := mem.F32Bytes([]float32{5, 6, 7, 8})

	var completed atomic.Int64
	const burst = 10
	for i := 0; i < burst; i++ {
		st := []struct{ q, b uint64 }{{q1, buf1}, {q2, buf2}}[i%2]
		s.HandleCallAsync(protocol.OpWriteBuffer, protocol.EncodeMessage(&protocol.WriteBufferReq{
			QueueID: st.q, BufferID: st.b, Data: data, EventID: uint64(i + 1),
		}), func(protocol.Message, error) { completed.Add(1) })
	}
	// Parked forever: event 9999 has no creating command.
	parked := goCall(s, &protocol.WriteBufferReq{
		QueueID: q1, BufferID: buf1, Data: data, EventID: 500, WaitEvents: []int64{9999},
	})

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := completed.Load(); got != burst {
		t.Fatalf("Close returned with %d/%d lane jobs completed", got, burst)
	}
	select {
	case r := <-parked:
		if r.err == nil {
			t.Fatal("parked command succeeded after Close")
		}
	default:
		t.Fatal("parked command still hanging after Close")
	}

	refused := goCall(s, &protocol.WriteBufferReq{
		QueueID: q1, BufferID: buf1, Data: data, EventID: 501,
	})
	if r := <-refused; r.err == nil {
		t.Fatal("submission accepted after Close")
	}
}

// TestEventReleaseBehindPipelinedWaiter pins the registration-time
// resolution of wait lists: a fire-and-forget event Release arriving on
// the wire *behind* a command that waits on the event must not orphan the
// waiter. The waiter resolved its dependency record at registration, so
// the release only drops the table entry.
func TestEventReleaseBehindPipelinedWaiter(t *testing.T) {
	s, q1, q2, buf1, buf2 := twoQueueSession(t)
	defer s.Close()
	data := mem.F32Bytes([]float32{1, 2, 3, 4})

	// Park q2's lane on a dependency that arrives last.
	parked := goCall(s, &protocol.WriteBufferReq{
		QueueID: q2, BufferID: buf2, Data: data, EventID: 300, WaitEvents: []int64{999},
	})
	// Creator completes on q1; the waiter queues on q2 behind the parked
	// command; the release then arrives and deletes the table entry.
	creator := mustEvent(t, goCall(s, &protocol.WriteBufferReq{
		QueueID: q1, BufferID: buf1, Data: data, EventID: 100, SimArrival: 400_000,
	}))
	waiter := goCall(s, &protocol.WriteBufferReq{
		QueueID: q2, BufferID: buf2, Data: data, EventID: 301, WaitEvents: []int64{100},
	})
	relCh := goCall(s, &protocol.ReleaseReq{Kind: protocol.ObjEvent, ID: 100})
	// Unpark q2 by finally creating event 999.
	mustEvent(t, goCall(s, &protocol.WriteBufferReq{
		QueueID: q1, BufferID: buf1, Data: data, EventID: 999,
	}))
	mustEvent(t, parked)
	got := mustEvent(t, waiter)
	if got.Profile.Start < creator.Profile.End {
		t.Fatalf("waiter ignored its released-but-held dependency: %d < %d",
			got.Profile.Start, creator.Profile.End)
	}
	if r := <-relCh; r.err != nil {
		t.Fatalf("release failed: %v", r.err)
	}
}

// TestQueueReleaseRetiresLane pins the lane lifecycle: releasing a queue
// closes and removes its lane, so create/use/release cycles do not
// accumulate parked worker goroutines for the session's lifetime.
func TestQueueReleaseRetiresLane(t *testing.T) {
	s, q1, _, buf1, _ := twoQueueSession(t)
	defer s.Close()
	data := mem.F32Bytes([]float32{1, 2, 3, 4})

	mustEvent(t, goCall(s, &protocol.WriteBufferReq{
		QueueID: q1, BufferID: buf1, Data: data, EventID: 1,
	}))
	s.laneMu.Lock()
	_, present := s.lanes[q1]
	s.laneMu.Unlock()
	if !present {
		t.Fatal("lane never created for active queue")
	}
	if r := <-goCall(s, &protocol.ReleaseReq{Kind: protocol.ObjQueue, ID: q1}); r.err != nil {
		t.Fatal(r.err)
	}
	s.laneMu.Lock()
	_, present = s.lanes[q1]
	s.laneMu.Unlock()
	if present {
		t.Fatal("released queue's lane still registered")
	}
}

// TestLaneQueueZeroAlloc: in steady state a lane's queue costs nothing —
// pushing a burst and draining it reuses the two arrays the worker swaps,
// where popping the head used to make every push after a drain reallocate.
func TestLaneQueueZeroAlloc(t *testing.T) {
	l := newLane()
	ran := 0
	job := laneJob{cmd: &settledCmd{resp: &protocol.EmptyResp{}}, done: func(protocol.Message, error) { ran++ }}
	var batch []laneJob
	cycle := func() {
		for i := 0; i < 16; i++ {
			l.push(job)
		}
		var ok bool
		if batch, ok = l.take(batch[:0]); !ok {
			t.Fatal("an open lane with queued jobs reported itself drained")
		}
		for i := range batch {
			j := batch[i]
			batch[i] = laneJob{}
			j.done(j.cmd.exec())
		}
	}
	cycle() // grow both arrays once
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("pushing and draining 16 jobs allocates %v objects, want 0", allocs)
	}
	if ran != 16*103 {
		t.Fatalf("%d jobs ran, want %d", ran, 16*103)
	}
	l.close()
	if _, ok := l.take(nil); ok {
		t.Fatal("a closed, drained lane handed out a batch")
	}
}

// TestWaitListIDValidation is the regression test for the wait-list cast
// bug: zero and negative IDs used to wrap through uint64 and surface as a
// misleading "unknown event"; they are bad requests. Host-assigned IDs in
// the synthetic range, which would silently collide with node-assigned
// counters, are rejected the same way, as are duplicate claims.
func TestWaitListIDValidation(t *testing.T) {
	n := testNode(t)
	s := openSession(t, n, "alice")
	ctxID, queueID, _ := buildPipeline(t, s)
	buf := call(t, s, &protocol.CreateBufferReq{ContextID: ctxID, Size: 64}, &protocol.ObjectResp{})
	data := mem.F32Bytes([]float32{1})

	callErr(t, s, &protocol.WriteBufferReq{
		QueueID: queueID, BufferID: buf.ID, Data: data, WaitEvents: []int64{-1},
	}, protocol.CodeBadRequest)
	callErr(t, s, &protocol.WriteBufferReq{
		QueueID: queueID, BufferID: buf.ID, Data: data, WaitEvents: []int64{0},
	}, protocol.CodeBadRequest)
	callErr(t, s, &protocol.WriteBufferReq{
		QueueID: queueID, BufferID: buf.ID, Data: data, EventID: 1<<62 + 7,
	}, protocol.CodeBadRequest)

	call(t, s, &protocol.WriteBufferReq{
		QueueID: queueID, BufferID: buf.ID, Data: data, EventID: 55,
	}, &protocol.EventResp{})
	callErr(t, s, &protocol.WriteBufferReq{
		QueueID: queueID, BufferID: buf.ID, Data: data, EventID: 55,
	}, protocol.CodeBadRequest)

	// The synchronous path resolves wait lists strictly: an ID nothing has
	// registered is the pre-lane "unknown event" error, not a parked
	// goroutine (only the async lane path may block on future arrivals).
	callErr(t, s, &protocol.WriteBufferReq{
		QueueID: queueID, BufferID: buf.ID, Data: data, WaitEvents: []int64{777},
	}, protocol.CodeUnknownObject)
}

// TestFailedDependencyCascades checks that a command whose creating
// command failed observes the failure through the wait list instead of
// hanging on an event that will never complete (the old FIFO reported a
// misleading "unknown event" here).
func TestFailedDependencyCascades(t *testing.T) {
	n := testNode(t)
	s := openSession(t, n, "alice")
	ctxID, queueID, _ := buildPipeline(t, s)
	buf := call(t, s, &protocol.CreateBufferReq{ContextID: ctxID, Size: 16}, &protocol.ObjectResp{})

	// Out-of-bounds write: fails, but its host-assigned event must fail
	// with it.
	callErr(t, s, &protocol.WriteBufferReq{
		QueueID: queueID, BufferID: buf.ID, Offset: 12, Data: make([]byte, 8), EventID: 7,
	}, protocol.CodeBadRequest)

	_, err := s.HandleCall(protocol.OpWriteBuffer, protocol.EncodeMessage(&protocol.WriteBufferReq{
		QueueID: queueID, BufferID: buf.ID, Data: make([]byte, 8), WaitEvents: []int64{7},
	}))
	if err == nil {
		t.Fatal("wait on failed event succeeded")
	}
	if !strings.Contains(err.Error(), "wait event 7") {
		t.Fatalf("cascade error does not name the failed dependency: %v", err)
	}
}
