package node

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/vtime"
)

// These tests pin the event record's lifecycle (DESIGN.md §4): an event is
// done once, a waiter that finds it done makes nothing, and only a waiter
// that comes first makes the wake-up the others share. CI repeats them
// under -race: a lost wake-up is a rate, not a certainty.

// hasWake reports whether an early waiter has made e's wake-up.
func hasWake(e *eventObj) bool {
	ch, _ := e.wake.Load().(chan struct{})
	return ch != nil && ch != settled
}

// awaited is one awaitDeadline outcome.
type awaited struct {
	end vtime.Time
	err error
}

// awaitAsync runs awaitDeadline on e from its own goroutine.
func awaitAsync(s *Session, e *eventObj) <-chan awaited {
	ch := make(chan awaited, 1)
	go func() {
		end, err := s.awaitDeadline([]*eventObj{e})
		ch <- awaited{end, err}
	}()
	return ch
}

// TestEventWaitersBeforeAndAfterCompletion: waiters that arrive before the
// event completes park on one shared wake-up and all see its end; a waiter
// that arrives after sees it at once; a failed event fails both kinds.
func TestEventWaitersBeforeAndAfterCompletion(t *testing.T) {
	s := newSession(testNode(t))
	defer s.Close()
	for _, failed := range []bool{false, true} {
		e := newEvent(1)
		early := make([]<-chan awaited, 4)
		for i := range early {
			early[i] = awaitAsync(s, e)
		}
		for deadline := time.Now().Add(5 * time.Second); !hasWake(e); {
			if time.Now().After(deadline) {
				t.Fatal("no early waiter made the wake-up")
			}
			runtime.Gosched()
		}
		if failed {
			e.fail(remoteErr(protocol.CodeLaunchFailed, "boom"))
		} else {
			e.complete(protocol.Profile{Start: 10, End: 42})
		}
		late := awaitAsync(s, e)
		for i, ch := range append(early, late) {
			select {
			case got := <-ch:
				switch {
				case failed && (got.err == nil || !strings.Contains(got.err.Error(), "wait event 1") || !strings.Contains(got.err.Error(), "boom")):
					t.Errorf("failed event: waiter %d got %v, want the event's failure", i, got.err)
				case !failed && (got.err != nil || got.end != 42):
					t.Errorf("completed event: waiter %d got %d, %v; want the end, 42", i, got.end, got.err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("waiter %d (failed=%v) never woke", i, failed)
			}
		}
	}
}

// TestEventCompletionRacesWaiters completes events while waiters arrive,
// so that some find the event done and some park: every one must wake.
func TestEventCompletionRacesWaiters(t *testing.T) {
	s := newSession(testNode(t))
	defer s.Close()
	for round := 0; round < 200; round++ {
		e := newEvent(uint64(round + 1))
		var wg sync.WaitGroup
		errs := make(chan error, 3)
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.awaitDeadline([]*eventObj{e}); err != nil {
					errs <- err
				}
			}()
		}
		e.complete(protocol.Profile{End: int64(round)})
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestEventWithoutEarlyWaiterMakesNoWakeup: an event that completes before
// anyone waits costs its record and nothing else — waiting on it afterwards
// allocates nothing and leaves no channel behind.
func TestEventWithoutEarlyWaiterMakesNoWakeup(t *testing.T) {
	s := newSession(testNode(t))
	defer s.Close()
	waits := make([]*eventObj, 1)
	allocs := testing.AllocsPerRun(200, func() {
		e := newEvent(7)
		e.complete(protocol.Profile{End: 5})
		waits[0] = e
		if end, err := s.awaitDeadline(waits); err != nil || end != 5 {
			t.Fatalf("awaitDeadline = %d, %v", end, err)
		}
	})
	if allocs != 1 {
		t.Fatalf("completing an event and waiting on it allocates %v objects, want 1: the record", allocs)
	}
	if hasWake(waits[0]) {
		t.Fatal("a waiter that came after completion made a wake-up")
	}
}

// TestEventSettledTwicePanics: a second complete or fail is a bug in the
// lane that ran the command, so it panics where it happens, whether or not
// a waiter made a wake-up first.
func TestEventSettledTwicePanics(t *testing.T) {
	for _, early := range []bool{false, true} {
		e := newEvent(1)
		if early {
			e.doneCh()
		}
		e.complete(protocol.Profile{End: 1})
		func() {
			defer func() {
				if r := recover(); r != "node: event settled twice" {
					t.Errorf("early waiter %v: second settle recovered %v, want the double-settle panic", early, r)
				}
			}()
			e.fail(remoteErr(protocol.CodeLaunchFailed, "again"))
		}()
	}
}

// TestSessionCloseFailsPlaceholderWaiters closes a session whose lanes are
// parked on placeholders nothing will claim — several commands on one ID,
// commands on two queues: each fails with "session closed", and Close
// leaves no lane goroutine behind.
func TestSessionCloseFailsPlaceholderWaiters(t *testing.T) {
	before := runtime.NumGoroutine()
	s, q1, q2, buf1, buf2 := twoQueueSession(t)
	data := mem.F32Bytes([]float32{1, 2, 3, 4})
	var parked []<-chan asyncResult
	for i, st := range []struct{ q, b uint64 }{{q1, buf1}, {q2, buf2}, {q1, buf1}, {q2, buf2}} {
		parked = append(parked, goCall(s, &protocol.WriteBufferReq{
			QueueID: st.q, BufferID: st.b, Data: data,
			EventID: uint64(100 + i), WaitEvents: []int64{int64(900 + i%2)},
		}))
	}
	// Let both lanes reach their placeholders before Close.
	s.mu.Lock()
	placeholders := []*eventObj{s.events[900], s.events[901]}
	s.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); !hasWake(placeholders[0]) || !hasWake(placeholders[1]); {
		if time.Now().After(deadline) {
			t.Fatal("lanes never parked on their placeholders")
		}
		runtime.Gosched()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range parked {
		select {
		case r := <-ch:
			if r.err == nil || !strings.Contains(r.err.Error(), "session closed") {
				t.Errorf("parked command %d: %v, want a session closed error", i, r.err)
			}
		default:
			t.Errorf("parked command %d still hanging after Close", i)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the session", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueryEventWhileRunning queries an event over and over while its
// command is parked and then completes: a query answers "incomplete" or
// the final profile, never a half-published one, and the first complete
// answer is the command's own response.
func TestQueryEventWhileRunning(t *testing.T) {
	s, q1, q2, buf1, buf2 := twoQueueSession(t)
	defer s.Close()
	data := mem.F32Bytes([]float32{1, 2, 3, 4})

	waiter := goCall(s, &protocol.WriteBufferReq{
		QueueID: q2, BufferID: buf2, Data: data, EventID: 200, WaitEvents: []int64{100},
	})
	stop := make(chan struct{})
	answers := make(chan []protocol.QueryEventResp, 1)
	go func() {
		var seen []protocol.QueryEventResp
		for {
			var r protocol.QueryEventResp
			m, err := s.HandleCall(protocol.OpQueryEvent, protocol.EncodeMessage(&protocol.QueryEventReq{EventID: 200}))
			if err == nil {
				err = protocol.DecodeMessage(&r, protocol.EncodeMessage(m))
			}
			if err != nil {
				t.Error(err)
				break
			}
			seen = append(seen, r)
			select {
			case <-stop:
				answers <- seen
				return
			default:
			}
		}
		answers <- seen
	}()
	mustEvent(t, goCall(s, &protocol.WriteBufferReq{
		QueueID: q1, BufferID: buf1, Data: data, EventID: 100, SimArrival: 300_000,
	}))
	got := mustEvent(t, waiter)
	final := call(t, s, &protocol.QueryEventReq{EventID: 200}, &protocol.QueryEventResp{})
	close(stop)
	seen := <-answers
	if !final.Complete || final.Profile != got.Profile {
		t.Fatalf("query after completion: %+v, want complete with %+v", final, got.Profile)
	}
	for i, r := range seen {
		if r.Complete && r.Profile != got.Profile || !r.Complete && r.Profile != (protocol.Profile{}) {
			t.Fatalf("query %d answered %+v; the command's profile is %+v", i, r, got.Profile)
		}
	}

	// A failed command's event answers with its failure.
	callErr(t, s, &protocol.WriteBufferReq{
		QueueID: q1, BufferID: buf1, Offset: 60, Data: data, EventID: 300,
	}, protocol.CodeBadRequest)
	if _, err := s.HandleCall(protocol.OpQueryEvent, protocol.EncodeMessage(&protocol.QueryEventReq{EventID: 300})); err == nil ||
		!strings.Contains(err.Error(), "event 300 failed") {
		t.Fatalf("query of a failed event: %v", err)
	}
}
