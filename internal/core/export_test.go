package core

import (
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
