package core

// The command log is the replay substrate of crash recovery (DESIGN.md §7):
// every mutating command — writes, copies, kernel launches, broadcasts — is
// appended in issue order, and after a node loss the runtime re-issues the
// whole log against zeroed buffer state. Buffer contents are a pure
// function of the mutation history (uninitialized bytes read as
// deterministic zeros), so the replay reconstructs exactly the bytes the
// cluster held before the crash, with the dead node's share re-placed on
// survivors. Reads and synchronization points are not logged: they do not
// change contents.
//
// Entries reference live host-side objects (queues, buffers, kernels), not
// wire IDs: replay goes through the same enqueue internals as the original
// commands, so re-binding a queue to a surviving device or re-allocating a
// replica transparently redirects the replayed traffic. Entries whose
// objects were released since are skipped — releasing an object declares
// its contents expendable.

// logEntry is one replayable mutation. The log itself lives on the Session
// (see Session.logCommand/replayLog): recovery replays only the logs of
// sessions the dead node touched.
type logEntry interface {
	// replay re-issues the mutation through the enqueue internals. The
	// session's replaying flag is set, so nothing is logged twice.
	replay(rt *Runtime) error
	// skip reports whether the entry's objects were released, making the
	// mutation unreplayable (and its contents expendable by declaration).
	skip() bool
}

// writeLog replays EnqueueWrite.
type writeLog struct {
	q    *Queue
	b    *Buffer
	off  int64
	data []byte // EnqueueWrite's private copy, shared with the request frame
}

func (l *writeLog) replay(rt *Runtime) error {
	_, err := l.q.enqueueWrite(l.b, l.off, l.data)
	return err
}

func (l *writeLog) skip() bool { return l.b.isReleased() }

// copyLog replays EnqueueCopy.
type copyLog struct {
	q              *Queue
	src, dst       *Buffer
	srcOff, dstOff int64
	size           int64
}

func (l *copyLog) replay(rt *Runtime) error {
	_, err := l.q.enqueueCopy(l.src, l.dst, l.srcOff, l.dstOff, l.size)
	return err
}

func (l *copyLog) skip() bool { return l.src.isReleased() || l.dst.isReleased() }

// kernelLog replays EnqueueKernel with the argument bindings snapshotted at
// the original launch — SetArg calls made since must not leak backwards in
// time.
type kernelLog struct {
	q        *Queue
	k        *Kernel
	bindings []argBinding
	global   []int64 // wire form, shared with the original request
	local    []int64
	opts     LaunchOptions
}

func (l *kernelLog) replay(rt *Runtime) error {
	_, err := l.q.enqueueKernelBound(l.k, l.bindings, l.global, l.local, nil, l.opts)
	return err
}

func (l *kernelLog) skip() bool {
	if l.k.isReleased() {
		return true
	}
	for _, bind := range l.bindings {
		if bind.buf != nil && bind.buf.isReleased() {
			return true
		}
	}
	return false
}

// broadcastLog replays Context.Broadcast.
type broadcastLog struct {
	c    *Context
	b    *Buffer
	data []byte
	qs   []*Queue
}

func (l *broadcastLog) replay(rt *Runtime) error {
	_, err := l.c.broadcast(l.b, l.data, l.qs)
	return err
}

func (l *broadcastLog) skip() bool { return l.b.isReleased() }
