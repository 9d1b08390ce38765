package node

import (
	"sync"

	"github.com/haocl-project/haocl/internal/clc"
	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/vtime"
)

// objectTable holds every remote object the node has handed out. Handles
// are node-global (the host may reach the same object over several
// connections), but queue objects remember their owning user so exclusive
// devices can be enforced and sessions can clean up on disconnect.
//
// Events are the exception: they live in the Session, not here. Their IDs
// are host-assigned (so the host can pipeline commands that wait on events
// whose creating command has not responded yet), and host counters are
// only unique per connection.
type objectTable struct {
	mu     sync.Mutex
	nextID uint64 // guarded by mu

	contexts map[uint64]*contextObj // guarded by mu
	queues   map[uint64]*queueObj   // guarded by mu
	buffers  map[uint64]*bufferObj  // guarded by mu
	programs map[uint64]*programObj // guarded by mu
	kernels  map[uint64]*kernelObj  // guarded by mu
}

func newObjectTable() *objectTable {
	return &objectTable{
		contexts: make(map[uint64]*contextObj),
		queues:   make(map[uint64]*queueObj),
		buffers:  make(map[uint64]*bufferObj),
		programs: make(map[uint64]*programObj),
		kernels:  make(map[uint64]*kernelObj),
	}
}

type contextObj struct {
	id      uint64
	devices []uint32

	// sessionID and tenant attribute the context to one host-side session:
	// node logs and accounting can tell tenants apart. Pre-session hosts
	// leave them 0/"" — one anonymous session.
	sessionID uint64
	tenant    string
}

type queueObj struct {
	id        uint64
	dev       device.Device
	stats     *deviceStats
	owner     string // user ID that created the queue
	profiling bool

	// clock orders the queue's commands in virtual time.
	clock vtime.Clock
	// execMu serializes functional execution, preserving in-order
	// command-queue semantics when multiple host goroutines enqueue.
	execMu sync.Mutex
}

type bufferObj struct {
	id uint64
	// size is immutable after construction; the registration stage bounds-
	// checks against it without touching the guarded bytes.
	size int64
	mu   sync.RWMutex
	data []byte // guarded by mu
}

type programObj struct {
	id     uint64
	prog   *clc.Program
	log    string
	source string
}

type kernelObj struct {
	id   uint64
	name string
	sig  *clc.Kernel
	spec *kernel.Spec
}

// eventObj is one completion event in a session's table. Its lifecycle is
// split in two (DESIGN.md §4): *registration* claims the ID in wire-arrival
// order (claimed, guarded by Session.mu), and *completion* happens when the
// command finishes executing on its lane — done is closed exactly once,
// after which profile and err are immutable. An eventObj may also be born
// as an unclaimed placeholder by a wait-list lookup that ran ahead of the
// creating command; waiters block on done either way.
type eventObj struct {
	// resp is the event's ID and, once done is closed, its profile: the
	// response a completed enqueue command returns, so that the command
	// need not carry one of its own.
	resp    protocol.EventResp
	claimed bool          // guarded by Session.mu
	done    chan struct{} // closed on completion or failure
	err     error
}

func newEvent(id uint64) *eventObj {
	return &eventObj{resp: protocol.EventResp{EventID: id}, done: make(chan struct{})}
}

// complete publishes the command's profile and wakes every waiter.
func (e *eventObj) complete(p protocol.Profile) {
	e.resp.Profile = p
	close(e.done)
}

// fail marks the command failed; waiters observe the error instead of a
// deadline.
func (e *eventObj) fail(err error) {
	e.err = err
	close(e.done)
}

// newID allocates the next object ID. Caller holds t.mu.
func (t *objectTable) newID() uint64 {
	t.nextID++
	return t.nextID
}

func (t *objectTable) putContext(c *contextObj) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	c.id = t.newID()
	t.contexts[c.id] = c
	return c.id
}

func (t *objectTable) context(id uint64) (*contextObj, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.contexts[id]
	if !ok {
		return nil, remoteErr(protocol.CodeUnknownObject, "unknown context %d", id)
	}
	return c, nil
}

func (t *objectTable) putQueue(q *queueObj) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	q.id = t.newID()
	t.queues[q.id] = q
	return q.id
}

func (t *objectTable) queue(id uint64) (*queueObj, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	q, ok := t.queues[id]
	if !ok {
		return nil, remoteErr(protocol.CodeUnknownObject, "unknown queue %d", id)
	}
	return q, nil
}

func (t *objectTable) putBuffer(b *bufferObj) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	b.id = t.newID()
	t.buffers[b.id] = b
	return b.id
}

func (t *objectTable) buffer(id uint64) (*bufferObj, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.buffers[id]
	if !ok {
		return nil, remoteErr(protocol.CodeUnknownObject, "unknown buffer %d", id)
	}
	return b, nil
}

func (t *objectTable) putProgram(p *programObj) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	p.id = t.newID()
	t.programs[p.id] = p
	return p.id
}

func (t *objectTable) program(id uint64) (*programObj, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.programs[id]
	if !ok {
		return nil, remoteErr(protocol.CodeUnknownObject, "unknown program %d", id)
	}
	return p, nil
}

func (t *objectTable) putKernel(k *kernelObj) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	k.id = t.newID()
	t.kernels[k.id] = k
	return k.id
}

func (t *objectTable) kernel(id uint64) (*kernelObj, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k, ok := t.kernels[id]
	if !ok {
		return nil, remoteErr(protocol.CodeUnknownObject, "unknown kernel %d", id)
	}
	return k, nil
}

// release removes one object, returning whether it existed, plus the queue
// object when a queue was released so the caller can update user counts.
func (t *objectTable) release(kind protocol.ObjectKind, id uint64) (*queueObj, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch kind {
	case protocol.ObjContext:
		if _, ok := t.contexts[id]; !ok {
			return nil, remoteErr(protocol.CodeUnknownObject, "release: unknown context %d", id)
		}
		delete(t.contexts, id)
	case protocol.ObjQueue:
		q, ok := t.queues[id]
		if !ok {
			return nil, remoteErr(protocol.CodeUnknownObject, "release: unknown queue %d", id)
		}
		delete(t.queues, id)
		return q, nil
	case protocol.ObjBuffer:
		if _, ok := t.buffers[id]; !ok {
			return nil, remoteErr(protocol.CodeUnknownObject, "release: unknown buffer %d", id)
		}
		delete(t.buffers, id)
	case protocol.ObjProgram:
		if _, ok := t.programs[id]; !ok {
			return nil, remoteErr(protocol.CodeUnknownObject, "release: unknown program %d", id)
		}
		delete(t.programs, id)
	case protocol.ObjKernel:
		if _, ok := t.kernels[id]; !ok {
			return nil, remoteErr(protocol.CodeUnknownObject, "release: unknown kernel %d", id)
		}
		delete(t.kernels, id)
	default:
		return nil, remoteErr(protocol.CodeBadRequest, "release: unknown object kind %d", kind)
	}
	return nil, nil
}
