// Package trace is the deterministic tracing subsystem: every host-assigned
// event ID becomes a span tree over the virtual timeline — wire transfer,
// node registration (dependency wait), device queue wait, exec — plus
// standalone spans for fair-share admission grants and recovery replay.
//
// Timestamps are vtime, never wall clock, so the trace of a seeded run is
// bit-identical across reruns. Recording order is NOT part of the contract:
// spans are collected concurrently from completion goroutines, and the
// exporters sort by a total key before emitting, so only the span multiset
// must be deterministic. Both exporters (Chrome trace-event JSON in
// chrome.go, Prometheus text format in prom.go) are dependency-free and
// byte-deterministic for a given multiset.
//
// A Tracer is attached to a runtime with SetTracer, which allocates a Run:
// one attachment = one Run = one Perfetto process group, so sequential
// bench legs (each starting at vtime 0 on a fresh cluster) do not overlap.
// A nil *Run is the off state; every method is nil-safe and the hot enqueue
// path checks for nil before building a Span, so disabled tracing costs one
// atomic load and zero allocations.
//
// haoclvet:deterministic
// lock-order: Tracer.mu
package trace

import (
	"sort"
	"sync"

	"github.com/haocl-project/haocl/internal/vtime"
)

// Kind classifies a span. Root kinds anchor one span tree per event ID;
// phase kinds are the children of a root; standalone kinds (admission,
// recovery) have no event ID and form single-span trees.
type Kind uint8

// Root kinds — one per command shape on the wire.
const (
	KindWrite     Kind = iota // host → device buffer write
	KindRead                  // device → host buffer read
	KindCopy                  // intra-node device copy
	KindKernel                // kernel execution
	KindMigrate               // host-relay migration push (ensureResident)
	KindPushRange             // P2P push, source side
	KindAwaitPush             // P2P push, consumer-side rendezvous
	KindBroadcast             // one hop of a broadcast chain

	// Phase kinds — children of a root span.
	KindWire      // host NIC egress occupancy
	KindRegister  // node-side registration + dependency wait
	KindQueueWait // device lane queue wait (deps resolved, device busy)
	KindExec      // device busy interval
	KindWireIn    // host NIC ingress occupancy (reads)

	// Standalone kinds.
	KindAdmission // FairQueue grant: submit → dispatch
	KindRecovery  // one session's log replay onto a replacement node

	kindCount
)

var kindNames = [kindCount]string{
	"write", "read", "copy", "kernel", "migrate",
	"push-range", "await-push", "broadcast-hop",
	"wire", "register", "queue-wait", "exec", "wire-in",
	"admission", "recovery",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// IsRoot reports whether k anchors a span tree for a wire command.
func (k Kind) IsRoot() bool { return k <= KindBroadcast }

// IsPhase reports whether k is a child phase inside a root's tree.
func (k Kind) IsPhase() bool { return k >= KindWire && k <= KindWireIn }

// Span is one interval on the virtual timeline. Spans carry no pointers
// and no record-time identifiers: tree structure is derived at export time
// by grouping (Run, Node, EventID), which is what makes the export
// independent of recording order.
type Span struct {
	Run     int    // attachment sequence number (one per SetTracer call)
	Kind    Kind   // role of this interval
	Tenant  string // owning session's tenant ("" for cluster-level spans)
	Node    string // serving node ("" for host-only spans)
	Device  string // device key, e.g. "node0/dev0" ("" when not device-bound)
	Queue   uint64 // host queue ID (0 for service-queue and standalone spans)
	EventID uint64 // host-assigned event ID (0 for standalone spans)
	Start   vtime.Time
	End     vtime.Time
	Bytes   int64 // payload bytes (0 when not a data-moving span)
	Replay  bool  // recorded while replaying a command log after a crash
}

// less is the total order used by every exporter; it must compare every
// field so equal multisets export identically regardless of append order.
func (s Span) less(o Span) bool {
	if s.Run != o.Run {
		return s.Run < o.Run
	}
	if s.Start != o.Start {
		return s.Start < o.Start
	}
	if s.End != o.End {
		return s.End < o.End
	}
	if s.Node != o.Node {
		return s.Node < o.Node
	}
	if s.EventID != o.EventID {
		return s.EventID < o.EventID
	}
	if s.Kind != o.Kind {
		return s.Kind < o.Kind
	}
	if s.Tenant != o.Tenant {
		return s.Tenant < o.Tenant
	}
	if s.Device != o.Device {
		return s.Device < o.Device
	}
	if s.Queue != o.Queue {
		return s.Queue < o.Queue
	}
	if s.Bytes != o.Bytes {
		return s.Bytes < o.Bytes
	}
	return !s.Replay && o.Replay
}

// Tracer collects spans from every run attached to it. Safe for
// concurrent use; Add is a single short critical section.
type Tracer struct {
	mu    sync.Mutex
	spans []Span   // guarded by mu
	runs  []string // guarded by mu; labels in attachment order
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// NewRun registers one attachment and returns its recording handle.
// Calling NewRun on a nil tracer returns a nil (disabled) run.
func (t *Tracer) NewRun(label string) *Run {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs = append(t.runs, label)
	return &Run{t: t, id: len(t.runs) - 1}
}

// Spans returns a sorted copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// snapshot returns sorted spans plus the run-label table.
func (t *Tracer) snapshot() ([]Span, []string) {
	t.mu.Lock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	labels := make([]string, len(t.runs))
	copy(labels, t.runs)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].less(spans[j]) })
	return spans, labels
}

// Run is the recording handle for one tracer attachment. The nil Run is
// the disabled state: Add on a nil Run is a no-op, though hot paths should
// check for nil before building the Span at all.
type Run struct {
	t  *Tracer
	id int
}

// Add records one span, stamping it with the run's sequence number.
func (r *Run) Add(s Span) {
	if r == nil {
		return
	}
	s.Run = r.id
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, s)
	r.t.mu.Unlock()
}

// Tracer returns the tracer this run records into (nil for a nil run).
func (r *Run) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.t
}
