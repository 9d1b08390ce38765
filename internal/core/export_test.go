package core

import (
	"slices"

	"github.com/haocl-project/haocl/internal/clc"
	"github.com/haocl-project/haocl/internal/mem"
)

// Parsed exposes the parse a program was created from to the external tests.
func (p *Program) Parsed() *clc.Program { return p.parsed }

// ControlMsgBytes is the modelled size of a control frame.
const ControlMsgBytes = controlMsgBytes

// LiveValid returns the union of the byte ranges valid on the buffer's
// replicas on live nodes, and whether some replica still sits on a node that
// died and awaits recovery (whose ranges the next recovery replays).
func (b *Buffer) LiveValid() (valid mem.RangeSet, awaitsRecovery bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for node, rb := range b.remote {
		if !node.Alive() {
			awaitsRecovery = true
			continue
		}
		for _, r := range rb.valid.Spans() {
			valid.Add(r.Lo, r.Hi)
		}
	}
	return valid, awaitsRecovery
}

// RelaySpans returns the spans migrateP2P would hand to the host relay for
// a consumer that needs the whole buffer and holds none of it: planOwners'
// leftover over [0, size). Any migration's relay spans are a subset — a
// gap's leftover is the whole buffer's leftover cut to the gap.
func (b *Buffer) RelaySpans() []mem.Range {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, leftover := b.planOwners(mem.Range{Lo: 0, Hi: b.size})
	return leftover
}

// InflightLen reports how many pipelined events the queue still lists.
func (q *Queue) InflightLen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.inflight)
}

// ReverseInflight reverses the queue's in-flight list: the append order
// two goroutines racing between issue and track can produce, made certain.
func (q *Queue) ReverseInflight() {
	q.mu.Lock()
	defer q.mu.Unlock()
	slices.Reverse(q.inflight)
}

// RemoteID returns the host-assigned event ID the command was issued under.
func (e *Event) RemoteID() uint64 { return e.remoteID }
