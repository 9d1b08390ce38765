package core_test

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/mem"
)

// readF32 reads the first n floats of buf through q.
func readF32(t *testing.T, q *core.Queue, buf *core.Buffer, n int) []float32 {
	t.Helper()
	data, _, err := q.EnqueueRead(buf, 0, int64(4*n))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return mem.BytesF32(data)
}

// TestMalformedNDRangeRefusedAtEnqueue: a launch whose NDRange no node
// would run is refused by EnqueueKernel, before it is charged, issued or
// logged. It used to be issued and logged and to poison the session:
// Finish failed, every later launch on the queue failed, and a launch on
// the session's other queue set off a recovery whose replay failed on the
// logged launch.
func TestMalformedNDRangeRefusedAtEnqueue(t *testing.T) {
	f := newRecoveryFixture(t, 2)
	q0, q1 := f.qs[0], f.qs[1]
	if err := f.incr.SetArg(0, f.buf); err != nil {
		t.Fatal(err)
	}
	if err := f.incr.SetArg(1, int32(4)); err != nil {
		t.Fatal(err)
	}
	sess := f.ctx.Session()
	before := sess.Metrics()
	for _, r := range []struct{ global, local []int }{
		{[]int{10}, []int{3}},            // not divisible
		{nil, nil},                       // no dimension
		{[]int{0}, nil},                  // empty dimension
		{[]int{4, 1, 1, 1}, nil},         // four dimensions
		{[]int{4}, []int{1, 1, 1, 1}},    // four local dimensions
		{[]int{4, 4}, []int{2, -2}},      // negative local size
		{[]int{8, 8, 8}, []int{8, 3, 8}}, // not divisible in dim 1
	} {
		ev, err := q0.EnqueueKernel(f.incr, r.global, r.local, nil, nil)
		if !errors.Is(err, kernel.ErrBadNDRange) || ev != nil {
			t.Fatalf("launch over %v by %v: event %v, err %v, want ErrBadNDRange", r.global, r.local, ev, err)
		}
	}
	if m := sess.Metrics(); m.Commands != before.Commands || m.LogEntries != before.LogEntries {
		t.Fatalf("refused launches reached the wire or the log: commands %d → %d, log entries %d → %d",
			before.Commands, m.Commands, before.LogEntries, m.LogEntries)
	}

	// The queue is clean: Finish succeeds and the next launch runs.
	if _, err := q0.Finish(); err != nil {
		t.Fatalf("finish after refused launches: %v", err)
	}
	if _, err := q0.EnqueueKernel(f.incr, []int{4}, nil, nil, nil); err != nil {
		t.Fatalf("launch after refused launches: %v", err)
	}
	if got := readF32(t, q0, f.buf, 4); !slices.Equal(got, []float32{1, 1, 1, 1}) {
		t.Fatalf("after one launch the buffer holds %v, want 1s", got)
	}
	// The session's other queue works, and nothing sets off a recovery.
	if _, err := q1.EnqueueKernel(f.incr, []int{4}, nil, nil, nil); err != nil {
		t.Fatalf("launch on the other queue: %v", err)
	}
	if got := readF32(t, q1, f.buf, 4); !slices.Equal(got, []float32{2, 2, 2, 2}) {
		t.Fatalf("after two launches the buffer holds %v, want 2s", got)
	}
	if m := f.cc.rt.Metrics(); m.Recoveries != 0 {
		t.Fatalf("refused launches set off %d recoveries", m.Recoveries)
	}
}

// TestReplayUsesLaunchSnapshot: a launch keeps the bindings it was issued
// with. After it, SetArg binds a second buffer and a new scalar; a crash
// and recovery then replay the launch, which must increment the buffer
// and the count it was launched with — the kernel's current bindings are
// for the next launch only.
func TestReplayUsesLaunchSnapshot(t *testing.T) {
	f := newRecoveryFixture(t, 2)
	victim := f.cc.cfg.Nodes[0].Name
	qv := f.queueOn(t, victim)
	qs := f.queueOn(t, f.cc.cfg.Nodes[1].Name)
	other, err := f.ctx.CreateBuffer(64 * 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qv.EnqueueWrite(f.buf, 0, mem.F32Bytes([]float32{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	if _, err := qv.EnqueueWrite(other, 0, mem.F32Bytes([]float32{10, 20, 30, 40})); err != nil {
		t.Fatal(err)
	}
	if err := f.incr.SetArg(0, f.buf); err != nil {
		t.Fatal(err)
	}
	if err := f.incr.SetArg(1, int32(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := qv.EnqueueKernel(f.incr, []int{4}, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.incr.SetArg(0, other); err != nil {
		t.Fatal(err)
	}
	if err := f.incr.SetArg(1, int32(4)); err != nil {
		t.Fatal(err)
	}

	f.cc.kill(victim)
	f.cc.awaitDown(victim)
	if err := f.cc.rt.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if m := f.cc.rt.Metrics(); m.ReplayedCommands < 3 {
		t.Fatalf("recovery replayed %d commands, want the two writes and the launch", m.ReplayedCommands)
	}
	if got := readF32(t, qs, f.buf, 4); !slices.Equal(got, []float32{2, 3, 3, 4}) {
		t.Fatalf("replayed launch left %v in its buffer, want [2 3 3 4]: it did not run with its own bindings", got)
	}
	if got := readF32(t, qs, other, 4); !slices.Equal(got, []float32{10, 20, 30, 40}) {
		t.Fatalf("replayed launch left %v in the buffer bound after it, want it untouched", got)
	}
	// The bindings set after the launch are the next launch's.
	if _, err := qs.EnqueueKernel(f.incr, []int{4}, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := readF32(t, qs, other, 4); !slices.Equal(got, []float32{11, 21, 31, 41}) {
		t.Fatalf("a launch after the rebinding left %v, want [11 21 31 41]", got)
	}
}

// TestConcurrentSetArgAndLaunch: SetArg on one goroutine races launches of
// the same kernel on another. Every launch must run with bindings some
// prefix of the SetArg calls produced — never a slice a later SetArg is
// writing into, which the race detector reports — so with the count fixed
// at 4, the two buffers the SetArg calls alternate between gain 4 in total
// per launch.
func TestConcurrentSetArgAndLaunch(t *testing.T) {
	const launches, n = 200, 4
	rt, stop := startRuntime(t, 1)
	defer stop()
	l := openLane(t, rt, "default", rt.Devices(0)...)
	other, err := l.ctx.CreateBuffer(16 * 4)
	if err != nil {
		t.Fatal(err)
	}
	bufs := []*core.Buffer{l.buf, other}
	if err := l.incr.SetArg(0, l.buf); err != nil {
		t.Fatal(err)
	}
	if err := l.incr.SetArg(1, int32(n)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stopSet := make(chan struct{})
	setErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopSet:
				return
			default:
			}
			err := l.incr.SetArg(0, bufs[i%2])
			if err == nil {
				err = l.incr.SetArg(1, int32(n))
			}
			if err != nil {
				setErr <- fmt.Errorf("SetArg: %w", err)
				return
			}
		}
	}()
	for i := 0; i < launches; i++ {
		if _, err := l.q.EnqueueKernel(l.incr, []int{n}, nil, nil, nil); err != nil {
			close(stopSet)
			wg.Wait()
			t.Fatalf("launch %d: %v", i, err)
		}
	}
	close(stopSet)
	wg.Wait()
	select {
	case err := <-setErr:
		t.Fatal(err)
	default:
	}
	if _, err := l.q.Finish(); err != nil {
		t.Fatal(err)
	}
	var total float32
	for _, b := range bufs {
		for _, v := range readF32(t, l.q, b, 16) {
			total += v
		}
	}
	if total != launches*n {
		t.Fatalf("the buffers gained %v in total, want %d: some launch ran with torn bindings", total, launches*n)
	}
}
