package core

import (
	"sync"
	"sync/atomic"

	"github.com/haocl-project/haocl/internal/protocol"
)

// The command log is the replay substrate of crash recovery (DESIGN.md §7):
// every mutating command — writes, copies, kernel launches, broadcasts — is
// appended in issue order, and after a node loss the runtime re-issues the
// log against zeroed buffer state. Buffer contents are a pure function of
// the mutation history (uninitialized bytes read as deterministic zeros),
// so the replay reconstructs exactly the bytes the cluster held before the
// crash, with the dead node's share re-placed on survivors. Reads and
// synchronization points are not logged: they do not change contents.
//
// The log forgets what no longer matters. Every entry's footprint is exact:
// a write defines [off, off+len) of its buffer, a broadcast all of it, a
// copy reads src[srcOff, +size) and defines dst[dstOff, +size). A kernel is
// opaque — it may read, and partly write, every byte of every buffer bound
// to it — so it never dies and it pins whatever its buffers hold. Per
// buffer (Buffer.logDefs) the log lists the entries that still define some
// of its bytes, each with one conservative live interval:
//
//   - a later definition trims the interval of a listed entry when it covers
//     a prefix, a suffix or all of it; a hole punched in the middle is not
//     tracked (no allocation, errs towards keeping);
//   - a copy takes a reference on every listed definition of its source
//     that overlaps what it read, and gives them back when it dies;
//   - a kernel takes a reference it never gives back (the pin) on every
//     listed definition of its bound buffers and empties their lists: a
//     pinned entry needs no further tracking, so a launch is amortised O(1);
//   - Buffer.Release retires the buffer's listed definitions: releasing a
//     buffer declares its contents expendable.
//
// An entry whose interval is empty and that nobody references is dead: it
// leaves the log at once — its slot becomes a tombstone, and with the slot
// goes the log's hold on the payload (a request frame keeps its own until
// shipped; a pooled write record goes back to its pool with the last
// hold, writeLog.Free) — its references are given back,
// which may kill what only it had read, and tombstones are compacted away
// once they outnumber surviving entries. All of it happens in the critical
// section of the append, so liveness is computed in log order, which is
// replay order, whatever order concurrent enqueues were issued in.
//
// Invariant: replaying the surviving entries in order from zeroed buffers
// yields byte for byte the contents replaying every entry ever logged
// would. A session that streams data through a few buffers therefore keeps
// a log of the size of those buffers, not of its history; what still grows
// with session age is the history of kernel-defined contents.
//
// Entries reference live host-side objects (queues, buffers, kernels), not
// wire IDs: replay goes through the same enqueue internals as the original
// commands, so re-binding a queue to a surviving device or re-allocating a
// replica transparently redirects the replayed traffic. Entries whose
// objects were released since are skipped — releasing an object declares
// its contents expendable. An entry is never modified once logged apart
// from its liveness header, which only the log reads: a replay walks a
// snapshot of the survivors without holding the log's lock.

// logEntry is one replayable mutation.
type logEntry interface {
	// replay re-issues the mutation through the enqueue internals. The
	// session's replaying flag is set, so nothing is logged twice.
	replay(rt *Runtime) error
	// skip reports whether the entry's objects were released, making the
	// mutation unreplayable (and its contents expendable by declaration).
	skip() bool
	// def returns the entry's liveness header; nil for a kernel launch,
	// which defines nothing the log can reason about and never dies.
	def() *logDef
}

// logDef is the liveness header of an entry that defines bytes of a buffer
// (a write, a copy, a broadcast), embedded in the entry.
type logDef struct {
	// lo, hi bound the bytes of the defined buffer that may still hold what
	// this entry put there: a superset of them, empty once none do.
	lo, hi int64 // guarded by cmdLog.mu
	// refs counts the surviving copies that read those bytes, plus one
	// for ever once a kernel may have.
	refs int32 // guarded by cmdLog.mu
	// chunk, slot locate the entry in the log, so that dying is O(1).
	chunk, slot int32 // guarded by cmdLog.mu
	// holds counts the owners of a pooled write record (writeLog.Free). It
	// sits in the header's padding, so no entry grows; zero in every other
	// entry.
	holds atomic.Int32
}

func (d *logDef) def() *logDef { return d }

// Chunk capacities in entries: a session's first chunk is small — most
// sessions are short-lived — each further one doubles up to logChunk, and
// from there the log grows by one fixed-size chunk at a time without ever
// copying what it holds.
const (
	logFirstChunk = 4
	logChunk      = 256
)

// cmdLog is one session's command log: the surviving entries in log order.
// The liveness state that decides which survive is in their headers and in
// the session's buffers (Buffer.logDefs), all of it guarded by mu — a leaf
// lock, taken with Buffer.mu held by the enqueue paths and Release.
type cmdLog struct {
	mu sync.Mutex
	// chunks hold the entries in log order; a nil slot is a tombstone.
	chunks [][]logEntry // guarded by mu
	live   int          // guarded by mu
	dead   int          // guarded by mu
	// bytes is the payload the surviving entries hold.
	bytes int64 // guarded by mu
	// spare is the first chunk the last compaction emptied, kept for the
	// next append that needs one: a log whose length swings around a chunk
	// boundary — a round of writes, then the copy that supersedes the
	// round before — would otherwise allocate it again every swing.
	spare []logEntry // guarded by mu
	// work is the cascade's worklist, kept for its capacity.
	work []*logDef // guarded by mu
	// ended is set once the session closed (end): nothing is logged, and
	// the buffers' lists, which may name recycled records, are not read.
	ended bool // guarded by mu
}

// append logs e and updates liveness for its footprint, dropping every
// entry e supersedes. A definition of no bytes changes nothing and is not
// logged, and neither is anything once the log has ended.
func (l *cmdLog) append(e logEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ended {
		return
	}
	switch e := e.(type) {
	case *writeLog:
		if len(e.data) == 0 {
			return
		}
		l.define(e.b, &e.logDef, e.off, e.off+int64(len(e.data)))
	case *broadcastLog:
		l.define(e.b, &e.logDef, 0, e.b.size)
	case *copyLog:
		if e.size == 0 {
			return
		}
		e.reads = l.reference(e.src, e.srcOff, e.srcOff+e.size)
		l.define(e.dst, &e.logDef, e.dstOff, e.dstOff+e.size)
	case *kernelLog:
		for _, bind := range e.bindings {
			if bind.buf != nil {
				l.pin(bind.buf)
			}
		}
	}

	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == cap(l.chunks[n-1]) {
		size := logFirstChunk
		if n > 0 {
			size = min(2*cap(l.chunks[n-1]), logChunk)
		}
		chunk := l.spare
		l.spare = nil
		if cap(chunk) != size {
			chunk = make([]logEntry, 0, size)
		}
		l.chunks = append(l.chunks, chunk)
		n++
	}
	if d := e.def(); d != nil {
		d.chunk, d.slot = int32(n-1), int32(len(l.chunks[n-1]))
	}
	l.chunks[n-1] = append(l.chunks[n-1], e)
	l.live++
	l.bytes += payloadLen(e)
	l.compact()
}

// define records that d's entry defines [lo, hi) of b: listed definitions
// it covers from either end are trimmed, those left with nothing leave the
// list and, unless something still references them, the log.
// Caller holds mu.
func (l *cmdLog) define(b *Buffer, d *logDef, lo, hi int64) {
	list := b.logDefs
	if list == nil {
		list = b.logDef0[:0]
	}
	keep := list[:0]
	for _, x := range list {
		if lo <= x.lo && hi > x.lo {
			x.lo = hi // a prefix, or all of it
		} else if hi >= x.hi && lo < x.hi {
			x.hi = lo // a suffix
		}
		if x.lo < x.hi {
			keep = append(keep, x)
		} else if x.refs == 0 {
			l.drop(x)
		}
	}
	clear(list[len(keep):])
	d.lo, d.hi = lo, hi
	b.logDefs = append(keep, d)
	if cap(b.logDefs) > len(b.logDef0) {
		b.logDef0[0] = nil // the list has moved out; what it left must not pin a dead entry
	}
}

// reference takes a reference on every listed definition of b that may
// still hold bytes of [lo, hi) and returns them. Caller holds mu.
func (l *cmdLog) reference(b *Buffer, lo, hi int64) []*logDef {
	n := 0
	for _, x := range b.logDefs {
		if x.lo < hi && lo < x.hi {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	reads := make([]*logDef, 0, n)
	for _, x := range b.logDefs {
		if x.lo < hi && lo < x.hi {
			x.refs++
			reads = append(reads, x)
		}
	}
	return reads
}

// pin makes every listed definition of b immortal and stops tracking it.
// Caller holds mu.
func (l *cmdLog) pin(b *Buffer) {
	for _, x := range b.logDefs {
		x.refs++
	}
	clear(b.logDefs)
	b.logDefs = b.logDefs[:0]
}

// retire drops b's listed definitions and its list: b was released, so its
// contents are expendable. A definition a surviving copy read stays until
// the copy goes.
func (l *cmdLog) retire(b *Buffer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, x := range b.logDefs {
		if l.ended {
			break
		}
		x.lo = x.hi
		if x.refs == 0 {
			l.drop(x)
		}
	}
	b.logDefs, b.logDef0 = nil, [1]*logDef{}
	l.compact()
}

// end gives back the log's hold on every write record it lists and
// forgets every entry: the session closed, so its log is never replayed.
// A replay under way keeps the records its snapshot holds.
func (l *cmdLog) end() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, chunk := range l.chunks {
		for _, e := range chunk {
			if w, ok := e.(*writeLog); ok {
				w.Free()
			}
		}
	}
	l.chunks, l.spare, l.work = nil, nil, nil
	l.live, l.dead, l.bytes = 0, 0, 0
	l.ended = true
}

// drop removes the entry of d — empty interval, no references, hence in no
// list — from the log, and whatever dies with it: a copy gives back the
// references it took, which may leave their holders in the same state.
// Iterative, so a long chain of copies costs no stack. Caller holds mu.
func (l *cmdLog) drop(d *logDef) {
	l.work = append(l.work[:0], d)
	for len(l.work) > 0 {
		d := l.work[len(l.work)-1]
		l.work[len(l.work)-1] = nil // or the scratch space pins the dead entry, payload and all
		l.work = l.work[:len(l.work)-1]
		e := l.chunks[d.chunk][d.slot]
		l.chunks[d.chunk][d.slot] = nil
		l.live--
		l.dead++
		l.bytes -= payloadLen(e)
		switch e := e.(type) {
		case *writeLog:
			e.Free() // the log's hold
		case *copyLog:
			for _, r := range e.reads {
				r.refs--
				if r.refs == 0 && r.lo >= r.hi {
					l.work = append(l.work, r)
				}
			}
		}
	}
}

// compact squeezes the tombstones out, in place, once they outnumber the
// surviving entries: amortised O(1) per entry that died. Caller holds mu.
func (l *cmdLog) compact() {
	if l.dead <= l.live {
		return
	}
	wc, ws := 0, 0
	for _, chunk := range l.chunks {
		for _, e := range chunk {
			if e == nil {
				continue
			}
			if ws == cap(l.chunks[wc]) {
				wc, ws = wc+1, 0
			}
			if d := e.def(); d != nil {
				d.chunk, d.slot = int32(wc), int32(ws)
			}
			l.chunks[wc][ws] = e
			ws++
		}
	}
	clear(l.chunks[wc][ws:])
	l.chunks[wc] = l.chunks[wc][:ws]
	if wc+1 < len(l.chunks) {
		l.spare = l.chunks[wc+1][:0]
		clear(l.spare[:cap(l.spare)])
	}
	clear(l.chunks[wc+1:])
	l.chunks = l.chunks[:wc+1]
	l.dead = 0
}

// snapshot returns the surviving entries in log order, with a hold on
// every pooled write record among them: whoever takes a snapshot frees
// each write record in it once done with it (Session.replayLog).
func (l *cmdLog) snapshot() []logEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]logEntry, 0, l.live)
	for _, chunk := range l.chunks {
		for _, e := range chunk {
			if e == nil {
				continue
			}
			if w, ok := e.(*writeLog); ok {
				w.hold()
			}
			out = append(out, e)
		}
	}
	return out
}

// stats returns the number of surviving entries and the payload bytes they
// hold.
func (l *cmdLog) stats() (entries, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(l.live), l.bytes
}

// payloadLen is the number of payload bytes the log holds through e.
func payloadLen(e logEntry) int64 {
	switch e := e.(type) {
	case *writeLog:
		return int64(len(e.data))
	case *broadcastLog:
		return int64(len(e.data))
	}
	return 0
}

// writeLog replays EnqueueWrite. It is also the write's own record:
// EnqueueWrite builds it (newWriteLog) before the first attempt and
// enqueue issues from it.
//
// From protocol.ReferenceFloor bytes up to the largest size class the
// record and its payload are one pooled unit. Its hold count is one for
// the log, one for each request frame that carries the payload and one
// for a replay's snapshot that lists it; whoever gives back the last
// returns it to writePools, and a hold a dropped frame never gives back
// leaves the record to the collector. No record points at an Event.
type writeLog struct {
	logDef
	q    *Queue
	b    *Buffer
	off  int64
	data []byte // EnqueueWrite's private copy, shared with the request frames that carry it
}

// writePools recycle pooled write records by their payload's size class
// (protocol.SizeClass); a pooled record's data has its class's capacity.
var writePools [protocol.NumSizeClasses]sync.Pool

// newWriteLog returns the record of a write of data at off of b through q,
// with a private copy of data. A pooled one comes from writePools (a miss
// allocates the record and its backing array, as an unpooled one does)
// and holds one hold, the log's; an unpooled one holds none.
func newWriteLog(q *Queue, b *Buffer, off int64, data []byte) *writeLog {
	class, size := protocol.SizeClass(len(data))
	if len(data) < protocol.ReferenceFloor || class < 0 {
		return &writeLog{q: q, b: b, off: off, data: append([]byte(nil), data...)}
	}
	w, _ := writePools[class].Get().(*writeLog)
	if w == nil {
		w = &writeLog{data: make([]byte, 0, size)}
	}
	w.q, w.b, w.off, w.data = q, b, off, append(w.data[:0], data...)
	w.holds.Store(1)
	return w
}

// hold takes one more hold on w, for a request frame or a snapshot, and
// reports whether w is pooled. The caller holds one already, so a pooled
// record's count is positive here; an unpooled one's is zero and stays so.
func (w *writeLog) hold() bool {
	if w.holds.Load() == 0 {
		return false
	}
	w.holds.Add(1)
	return true
}

// Free gives back one hold on a pooled record, and nothing on an unpooled
// one. The last hold returns the record to its pool, its payload poisoned
// under the race detector.
func (w *writeLog) Free() {
	if w.holds.Load() == 0 || w.holds.Add(-1) > 0 {
		return
	}
	class, _ := protocol.SizeClass(len(w.data))
	protocol.Poison(w.data)
	*w = writeLog{data: w.data[:0]}
	writePools[class].Put(w)
}

func (l *writeLog) replay(rt *Runtime) error {
	_, err := l.enqueue()
	return err
}

func (l *writeLog) skip() bool { return l.b.isReleased() }

// copyLog replays EnqueueCopy.
type copyLog struct {
	logDef
	q              *Queue
	src, dst       *Buffer
	srcOff, dstOff int64
	size           int64
	// reads are the definitions of src this copy holds a reference on.
	reads []*logDef // guarded by cmdLog.mu
}

func (l *copyLog) replay(rt *Runtime) error {
	_, err := l.q.enqueueCopy(l.src, l.dst, l.srcOff, l.dstOff, l.size)
	return err
}

func (l *copyLog) skip() bool { return l.src.isReleased() || l.dst.isReleased() }

// kernelLog replays EnqueueKernel with the argument bindings snapshotted at
// the original launch — SetArg calls made since must not leak backwards in
// time. It is also the launch's own record: EnqueueKernel builds it before
// the first attempt and enqueueKernelBound issues from it.
type kernelLog struct {
	q *Queue
	k *Kernel
	// bindings is the kernel's argument slice at launch, shared with the
	// kernel until its next SetArg, which copies it (Kernel.args).
	bindings []argBinding
	// dims is the NDRange's wire form, global then local dimensions,
	// shared with the original request; EnqueueKernel admits at most 3+3.
	dims            [6]int64
	nGlobal, nLocal uint8
	opts            LaunchOptions
}

func (l *kernelLog) global() []int64 { return l.dims[:l.nGlobal:l.nGlobal] }
func (l *kernelLog) local() []int64  { return l.dims[l.nGlobal : l.nGlobal+l.nLocal] }

func (l *kernelLog) replay(rt *Runtime) error {
	_, err := l.q.enqueueKernelBound(l, nil)
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

func (l *kernelLog) def() *logDef { return nil }

// broadcastLog replays Context.Broadcast.
type broadcastLog struct {
	logDef
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
