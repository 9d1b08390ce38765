package node

import (
	"sync"
	"sync/atomic"

	"github.com/haocl-project/haocl/internal/clc"
	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/vtime"
)

// A session's objects — contexts, queues, buffers, programs and kernels —
// live in its table (Session.objects) and die with its connection: another
// connection cannot name them, and Session.Close drops whatever the host
// left unreleased. Their IDs are host-assigned, like events' (DESIGN.md
// §2): the create request carries the ID, so the host can pipeline
// commands naming the object before the node has responded. A create
// takes effect at registration, in wire order (prepare), so those commands
// find it. Events live in a table of their own (Session.events). An
// object or event whose request carries no ID (direct session drivers and
// tests) gets one from the node's one counter (Node.nextID), in the
// synthetic range clear of any host's.

type contextObj struct {
	devices []uint32

	// sessionID and tenant attribute the context to one host-side session:
	// node logs and accounting can tell tenants apart. Pre-session hosts
	// leave them 0/"" — one anonymous session.
	sessionID uint64
	tenant    string
}

// queueObj is one command queue. Its commands run on its lane and nowhere
// else, one at a time in arrival order, so the queue takes no lock of its
// own: the lane is its in-order semantics, and the clock locks itself.
type queueObj struct {
	dev       device.Device
	stats     *deviceStats
	owner     string // user ID that created the queue
	profiling bool

	// clock orders the queue's commands in virtual time.
	clock vtime.Clock
	// lane runs the queue's commands; releasing the queue closes it.
	lane lane
}

type bufferObj struct {
	// size is immutable after construction; the registration stage bounds-
	// checks against it without touching the guarded bytes.
	size int64
	mu   sync.RWMutex
	data []byte // guarded by mu
}

type programObj struct {
	prog   *clc.Program
	log    string
	source string
}

type kernelObj struct {
	name string
	sig  *clc.Kernel
	spec *kernel.Spec
}

// eventObj is one completion event in a session's table. Its lifecycle is
// split in two (DESIGN.md §4): *registration* claims the ID in wire-arrival
// order (claimed, guarded by Session.mu), and *completion* happens when the
// command finishes executing on its lane: complete or fail publishes the
// outcome and then settles the event, once, after which profile and err
// are immutable. An eventObj may also be born as an unclaimed placeholder
// by a wait-list lookup that ran ahead of the creating command.
//
// A record is one allocation. A waiter that finds the event settled reads
// it and moves on; only one that arrives before completion makes the
// wake-up channel, which every later early waiter shares and settling
// closes.
type eventObj struct {
	// resp is the event's ID and, once settled, its profile: the response
	// a completed enqueue command returns, so that the command need not
	// carry one of its own.
	resp    protocol.EventResp
	err     error
	claimed bool // guarded by Session.mu

	// wake is empty while the command runs and no one waits, the early
	// waiters' channel once one arrives, and settled once the event is.
	wake atomic.Value // chan struct{}
}

// settled marks a settled event's wake: a channel no waiter ever gets.
var settled = make(chan struct{})

func newEvent(id uint64) *eventObj {
	return &eventObj{resp: protocol.EventResp{EventID: id}}
}

// complete publishes the command's profile and wakes every waiter.
func (e *eventObj) complete(p protocol.Profile) {
	e.resp.Profile = p
	e.settle()
}

// fail marks the command failed and returns err; waiters observe the error
// instead of a deadline.
func (e *eventObj) fail(err error) error {
	e.err = err
	e.settle()
	return err
}

// settle marks the event settled and closes the early waiters' channel,
// if one was made. The outcome is written before: the swap orders it
// before every waiter's read. A second settle is a bug and panics, as
// closing a closed channel would.
func (e *eventObj) settle() {
	old, _ := e.wake.Swap(settled).(chan struct{})
	if old == settled {
		panic("node: event settled twice")
	}
	if old != nil {
		close(old)
	}
}

// doneCh returns nil once the event is settled, and otherwise the channel
// settling closes, made by the first waiter to ask.
func (e *eventObj) doneCh() <-chan struct{} {
	ch, _ := e.wake.Load().(chan struct{})
	if ch == nil {
		if ch = make(chan struct{}); !e.wake.CompareAndSwap(nil, ch) {
			ch = e.wake.Load().(chan struct{})
		}
	}
	if ch == settled {
		return nil
	}
	return ch
}

// isDone reports, without blocking, whether the event has settled.
func (e *eventObj) isDone() bool {
	ch, _ := e.wake.Load().(chan struct{})
	return ch == settled
}

// put files one object in the session's table under the host-assigned id,
// or under a minted one when id is 0, and returns the ID. An ID that is
// taken, or that lands in the synthetic range, is refused, and so is any
// create once the session has started to close: Close drops the table,
// and nothing may be filed behind it.
func (s *Session) put(id uint64, obj any) (uint64, error) {
	if id == 0 {
		id = synthBase + s.node.nextID.Add(1)
	} else if id >= synthBase {
		return 0, remoteErr(protocol.CodeBadRequest,
			"host-assigned object ID %d lands in the reserved synthetic range", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing() {
		return 0, errShuttingDown
	}
	if _, taken := s.objects[id]; taken {
		return 0, remoteErr(protocol.CodeBadRequest, "duplicate object ID %d", id)
	}
	if s.objects == nil {
		s.objects = make(map[uint64]any)
	}
	s.objects[id] = obj
	return id, nil
}

// objectResp answers a create that put filed under id.
func objectResp(id uint64, err error) (protocol.Message, error) {
	if err != nil {
		return nil, err
	}
	return &protocol.ObjectResp{ID: id}, nil
}

// lookup resolves one of the session's objects as a T; kind names T in the
// error. An ID of another kind, or another connection's, is unknown.
func lookup[T any](s *Session, kind string, id uint64) (T, error) {
	s.mu.Lock()
	obj, ok := s.objects[id].(T)
	s.mu.Unlock()
	if !ok {
		return obj, remoteErr(protocol.CodeUnknownObject, "unknown %s %d", kind, id)
	}
	return obj, nil
}

// kindOf tags a table object with its wire kind.
func kindOf(obj any) protocol.ObjectKind {
	switch obj.(type) {
	case *contextObj:
		return protocol.ObjContext
	case *queueObj:
		return protocol.ObjQueue
	case *bufferObj:
		return protocol.ObjBuffer
	case *programObj:
		return protocol.ObjProgram
	case *kernelObj:
		return protocol.ObjKernel
	}
	return 0
}

// releaseObject drops one of the session's non-event objects. A queue gives
// back its device-user count and closes its lane under mu, as it leaves the
// table; the worker drains what was registered before and exits.
func (s *Session) releaseObject(kind protocol.ObjectKind, id uint64) error {
	if kind < protocol.ObjContext || kind > protocol.ObjKernel {
		return remoteErr(protocol.CodeBadRequest, "release: unknown object kind %d", kind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[id]
	if !ok || kindOf(obj) != kind {
		return remoteErr(protocol.CodeUnknownObject, "release: unknown %s %d", kind, id)
	}
	delete(s.objects, id)
	if q, isQueue := obj.(*queueObj); isQueue {
		q.lane.close()
		s.dropQueueUser(q)
	}
	return nil
}
