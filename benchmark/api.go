package main

import (
	"github.com/haocl-project/haocl/internal/core"
)

// client is one goroutine's use of the public API. Workloads make every
// API call through it, which is where the traced pass puts its first
// boundary: calls that return once the command is queued are timed as
// haocl.enqueue, calls that block on the cluster as haocl.wait. Untraced,
// each method costs two nil checks on top of the call.
type client struct {
	tr   *tracer
	lane uint8
	id   int32 // round, or job on serve-mt
	// events are the completion events of the commands issued since the
	// last releaseEvents: every round releases every object it creates.
	events []*core.Event
}

func (c *client) done(kind spanKind, start int64) { c.tr.end(kind, c.lane, c.id, start) }

func (c *client) write(q *core.Queue, b *core.Buffer, off int64, data []byte) error {
	s := c.tr.begin()
	ev, err := q.EnqueueWrite(b, off, data)
	c.done(spEnqueue, s)
	if err == nil {
		c.events = append(c.events, ev)
	}
	return err
}

func (c *client) setArg(k *core.Kernel, i int, v any) error {
	s := c.tr.begin()
	err := k.SetArg(i, v)
	c.done(spEnqueue, s)
	return err
}

func (c *client) launch(q *core.Queue, k *core.Kernel, global, local []int, opts *core.LaunchOptions) error {
	s := c.tr.begin()
	ev, err := q.EnqueueKernel(k, global, local, nil, opts)
	c.done(spEnqueue, s)
	if err == nil {
		c.events = append(c.events, ev)
	}
	return err
}

func (c *client) copy(q *core.Queue, src, dst *core.Buffer, size int64) error {
	s := c.tr.begin()
	ev, err := q.EnqueueCopy(src, dst, 0, 0, size)
	c.done(spEnqueue, s)
	if err == nil {
		c.events = append(c.events, ev)
	}
	return err
}

func (c *client) read(q *core.Queue, b *core.Buffer, off, size int64) ([]byte, error) {
	s := c.tr.begin()
	data, ev, err := q.EnqueueRead(b, off, size)
	c.done(spWait, s)
	if err == nil {
		c.events = append(c.events, ev)
	}
	return data, err
}

func (c *client) finish(q *core.Queue) error {
	s := c.tr.begin()
	_, err := q.Finish()
	c.done(spWait, s)
	return err
}

// blocking times a group of synchronous object life-cycle calls (open,
// create, build, release, close): each is a round trip the caller waits for.
func (c *client) blocking(f func() error) error {
	s := c.tr.begin()
	err := f()
	c.done(spWait, s)
	return err
}

// releaseEvents frees the node-side records of every event collected so
// far. Call it after a synchronization point, and only once the buffers the
// events wrote are released or written again: the runtime chains a
// buffer's next command on its newest event, and refuses a released one.
func (c *client) releaseEvents(rt *core.Runtime) { c.releaseOlder(rt, len(c.events)) }

// releaseOlder releases the first n collected events and keeps the rest.
func (c *client) releaseOlder(rt *core.Runtime, n int) {
	for _, ev := range c.events[:n] {
		// Event.Release is fire-and-forget and always returns nil.
		_ = ev.Release(rt)
	}
	kept := copy(c.events, c.events[n:])
	for i := kept; i < len(c.events); i++ {
		c.events[i] = nil
	}
	c.events = c.events[:kept]
}
