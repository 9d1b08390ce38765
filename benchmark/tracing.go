package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/transport"
)

// The traced pass records a span at each of the four boundaries the
// benchmark can reach from outside the program: the public API call, the
// host's net.Conn, the node's request handler and the device's Execute.
// Nothing inside internal/... is instrumented; each boundary is either a
// call the workload makes or an interface the program already accepts
// (transport.Dialer, transport.AsyncHandler, device.Device).

type spanKind uint8

const (
	spRound     spanKind = iota // one measured round (the root of its spans)
	spEnqueue                   // API: Enqueue*/SetArg, returns once queued
	spWait                      // API: a call that blocks on the cluster
	spApp                       // API: a whole application run (paper-figs)
	spAdmission                 // sched.Admission.Acquire
	spRecover                   // core.Runtime.Recover
	spConnWrite                 // host net.Conn Write
	spRegister                  // node: HandleCallAsync's synchronous part
	spHandle                    // node: request arrival until done()
	spExec                      // device.Execute
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"round", "haocl.enqueue", "haocl.wait", "haocl.app", "sched.admission",
	"core.recover", "transport.conn_write", "node.register", "node.handle", "kernel.exec",
}

// span is one recorded interval. id is the identifier its request shares
// with the others it caused: the round, or the job on serve-mt. lane tells
// apart the goroutines, connections or nodes of one kind.
type span struct {
	start, end int64 // ns since the tracer's epoch
	id         int32
	parent     int32 // index of the span that caused it, -1 for a root
	kind       spanKind
	lane       uint8
}

// maxSpans bounds the preallocated span store (32 B each). The largest
// traced pass, crash-replay, records about 0.9 M.
const maxSpans = 1 << 21

type tracer struct {
	epoch time.Time
	spans []span
	next  atomic.Int64

	// recording is raised for the measured rounds only; it is flipped at
	// round barriers, when nothing is in flight.
	recording atomic.Bool
	round     atomic.Int32 // id of the current round
	roundSpan atomic.Int32 // index of its span

	// idOf maps a node-side device to the shared identifier of the request
	// it is serving; nil means the current round.
	idOf func(dev uint32) int32

	connWrites, connWriteBytes atomic.Int64
	connReads, connReadBytes   atomic.Int64
	nodeOps, nodeErrors        atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, maxSpans)}
	t.roundSpan.Store(-1)
	return t
}

// begin returns the start stamp for a span, or 0 when nothing is being
// recorded. A nil tracer is the untraced run: two nil checks per API call.
func (t *tracer) begin() int64 {
	if t == nil || !t.recording.Load() {
		return 0
	}
	return int64(time.Since(t.epoch)) + 1
}

// open reserves a span whose end is filled in later by finish.
func (t *tracer) open(kind spanKind, lane uint8, id, parent int32, start int64) int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1
	}
	t.spans[i] = span{start: start, id: id, parent: parent, kind: kind, lane: lane}
	return int32(i)
}

func (t *tracer) finish(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.epoch)) + 1
	}
}

// end records a span begun with begin; a zero start records nothing.
func (t *tracer) end(kind spanKind, lane uint8, id int32, start int64) {
	if start == 0 {
		return
	}
	t.finish(t.open(kind, lane, id, t.roundSpan.Load(), start))
}

func (t *tracer) startRound(r int) {
	if t == nil {
		return
	}
	t.round.Store(int32(r))
	t.recording.Store(true)
	t.roundSpan.Store(t.open(spRound, 0, int32(r), -1, t.begin()))
}

func (t *tracer) endRound() {
	if t == nil {
		return
	}
	t.finish(t.roundSpan.Load())
	t.recording.Store(false)
	t.roundSpan.Store(-1)
}

func (t *tracer) dropped() int64 {
	if d := t.next.Load() - int64(len(t.spans)); d > 0 {
		return d
	}
	return 0
}

func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// --- host net.Conn -------------------------------------------------------

// tracedConn counts and times the host side's socket calls. It embeds the
// net.Conn interface, not *net.TCPConn, so a vectored frame write
// (net.Buffers) reaches it as one Write per buffer: a bulk frame counts as
// two writes, header and body.
type tracedConn struct {
	net.Conn
	t    *tracer
	lane uint8
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := c.t.begin()
	n, err := c.Conn.Write(p)
	if start != 0 {
		c.t.end(spConnWrite, c.lane, c.t.round.Load(), start)
		c.t.connWrites.Add(1)
		c.t.connWriteBytes.Add(int64(n))
	}
	return n, err
}

// Read is only counted: a read's interval is mostly the wait for the
// node, which the API-level wait spans already cover.
func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.t.recording.Load() {
		c.t.connReads.Add(1)
		c.t.connReadBytes.Add(int64(n))
	}
	return n, err
}

// tracedDialer is transport.TCPDialer with the connection wrapped before
// the client sees it.
type tracedDialer struct {
	t     *tracer
	conns atomic.Int32
}

func (d *tracedDialer) Dial(addr string) (*transport.Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial node %s: %w", addr, err)
	}
	lane := uint8(d.conns.Add(1) - 1)
	return transport.NewClient(&tracedConn{Conn: conn, t: d.t, lane: lane}), nil
}

// --- node handler and device ----------------------------------------------

// nodeTrace is what one node's handler and device wrappers share: the
// node's lane, and per device the handle spans of the kernel launches that
// have arrived but not yet executed. A device runs its one queue's
// launches in arrival order, so the oldest is the parent of the next
// Execute.
type nodeTrace struct {
	t    *tracer
	lane uint8

	mu       sync.Mutex
	queueDev map[uint64]uint32  // guarded by mu; queue ID → device ID
	launches map[uint32][]int32 // guarded by mu; device ID → pending handle spans
}

func newNodeTrace(t *tracer, lane uint8) *nodeTrace {
	return &nodeTrace{t: t, lane: lane, queueDev: make(map[uint64]uint32), launches: make(map[uint32][]int32)}
}

func (nt *nodeTrace) deviceOf(queue uint64) uint32 {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	return nt.queueDev[queue]
}

func (nt *nodeTrace) id(dev uint32) int32 {
	if nt.t.idOf != nil && dev != 0 {
		return nt.t.idOf(dev)
	}
	return nt.t.round.Load()
}

// tracedHandler wraps the handler of one node connection.
type tracedHandler struct {
	inner transport.AsyncHandler
	nt    *nodeTrace
}

func (h *tracedHandler) HandleCall(op protocol.Op, body []byte) (protocol.Message, error) {
	return h.inner.HandleCall(op, body)
}

func (h *tracedHandler) Close() error {
	if c, ok := h.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// queueOp reports whether the request's body starts with the queue ID.
func queueOp(op protocol.Op) bool {
	switch op {
	case protocol.OpWriteBuffer, protocol.OpReadBuffer, protocol.OpCopyBuffer, protocol.OpEnqueueKernel,
		protocol.OpFinishQueue, protocol.OpPushRange, protocol.OpAwaitPush:
		return true
	}
	return false
}

func (h *tracedHandler) HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error)) {
	t := h.nt.t
	start := t.begin()
	if start == 0 {
		h.inner.HandleCallAsync(op, body, done)
		return
	}
	var dev uint32
	if queueOp(op) && len(body) >= 8 {
		dev = h.nt.deviceOf(protocol.NewDecoder(body).U64())
	}
	idx := t.open(spHandle, h.nt.lane, h.nt.id(dev), t.roundSpan.Load(), start)
	if op == protocol.OpEnqueueKernel {
		h.nt.mu.Lock()
		h.nt.launches[dev] = append(h.nt.launches[dev], idx)
		h.nt.mu.Unlock()
	}
	var createOn uint32
	if op == protocol.OpCreateQueue {
		var req protocol.CreateQueueReq
		if protocol.DecodeMessage(&req, body) == nil {
			createOn = req.DeviceID
		}
	}
	t.nodeOps.Add(1)
	h.inner.HandleCallAsync(op, body, func(resp protocol.Message, err error) {
		if err != nil {
			t.nodeErrors.Add(1)
		} else if obj, ok := resp.(*protocol.ObjectResp); ok && createOn != 0 {
			h.nt.mu.Lock()
			h.nt.queueDev[obj.ID] = createOn
			h.nt.mu.Unlock()
		}
		t.finish(idx)
		done(resp, err)
	})
	t.end(spRegister, h.nt.lane, h.nt.id(dev), start)
}

// tracedDevice times Execute, the one call in which a device runs a
// kernel's work-item function for real.
type tracedDevice struct {
	device.Device
	nt *nodeTrace
}

func (d *tracedDevice) Execute(name string, l kernel.Launch) error {
	start := d.nt.t.begin()
	err := d.Device.Execute(name, l)
	if start != 0 {
		dev := d.Info().ID
		parent := int32(-1)
		d.nt.mu.Lock()
		if q := d.nt.launches[dev]; len(q) > 0 {
			parent = q[0]
			d.nt.launches[dev] = q[1:]
		}
		d.nt.mu.Unlock()
		d.nt.t.finish(d.nt.t.open(spExec, d.nt.lane, d.nt.id(dev), parent, start))
	}
	return err
}

// --- aggregation and export ------------------------------------------------

// kindTotals is the count and summed duration of one kind of span.
type kindTotals struct {
	n   int64
	dur time.Duration
}

func (t *tracer) totals() [numSpanKinds]kindTotals {
	var out [numSpanKinds]kindTotals
	for _, s := range t.recorded() {
		if s.end == 0 {
			continue
		}
		out[s.kind].n++
		out[s.kind].dur += time.Duration(s.end - s.start)
	}
	return out
}

// busy is the time during which at least one span of the kind was open on
// a lane, summed over lanes: the union of the intervals, not their sum.
func (t *tracer) busy(kind spanKind) time.Duration {
	byLane := make(map[uint8][]span)
	for _, s := range t.recorded() {
		if s.kind == kind && s.end != 0 {
			byLane[s.lane] = append(byLane[s.lane], s)
		}
	}
	var total int64
	for _, ss := range byLane {
		sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
		var hi int64
		for _, s := range ss {
			if s.start > hi {
				total += s.end - s.start
				hi = s.end
			} else if s.end > hi {
				total += s.end - hi
				hi = s.end
			}
		}
	}
	return time.Duration(total)
}

// writeChrome writes the spans as Chrome trace-event JSON (one complete
// event each; pid is the span kind, tid its lane).
func (t *tracer) writeChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "[")
	for k := spanKind(0); k < numSpanKinds; k++ {
		if k > 0 {
			fmt.Fprint(bw, ",")
		}
		fmt.Fprintf(bw, `{"ph":"M","name":"process_name","pid":%d,"args":{"name":%q}}`, k, spanNames[k])
	}
	for i, s := range t.recorded() {
		if s.end == 0 {
			continue
		}
		fmt.Fprintf(bw, ",\n"+`{"ph":"X","name":%q,"pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"id":%d,"parent":%d}}`,
			spanNames[s.kind], s.kind, s.lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.id, s.parent)
	}
	fmt.Fprintln(bw, "]")
	return bw.Flush()
}
