package core

import (
	"testing"

	"github.com/haocl-project/haocl/internal/mem"
)

// TestPlanOwners is the white-box test for the p2p migration's owner
// planner: the cover must walk nodes
// in the runtime's deterministic order, split a gap across replica
// boundaries exactly, never assign the same byte twice, and return the
// unowned remainder as leftover.
func TestPlanOwners(t *testing.T) {
	nA := &NodeHandle{name: "alpha"}
	nB := &NodeHandle{name: "beta"}
	nC := &NodeHandle{name: "gamma"} // holds no replica at all
	rt := &Runtime{nodes: []*NodeHandle{nA, nB, nC}}

	rbA := &remoteBuf{creation: creation{id: 1}}
	rbA.valid.Add(0, 16)
	rbA.valid.Add(48, 64)
	rbB := &remoteBuf{creation: creation{id: 2}}
	rbB.valid.Add(8, 40) // overlaps A on [8,16): A must win by node order

	b := &Buffer{
		ctx:  &Context{rt: rt},
		size: 64,
		remote: map[*NodeHandle]*remoteBuf{
			nA: rbA,
			nB: rbB,
		},
	}

	plan, leftover := b.planOwners(mem.Range{Lo: 4, Hi: 60})

	type span struct {
		node string
		lo   int64
		hi   int64
	}
	var got []span
	for _, ps := range plan {
		got = append(got, span{ps.node.name, ps.r.Lo, ps.r.Hi})
	}
	want := []span{
		{"alpha", 4, 16},  // A's head, including the contested [8,16)
		{"alpha", 48, 60}, // A's tail clipped to the gap
		{"beta", 16, 40},  // B supplies only what A left
	}
	if len(got) != len(want) {
		t.Fatalf("plan = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("plan[%d] = %+v, want %+v (full plan %+v)", i, got[i], want[i], got)
		}
	}

	// [40,48) is owned by nobody: it must come back as leftover, exactly.
	if len(leftover) != 1 || leftover[0].Lo != 40 || leftover[0].Hi != 48 {
		t.Fatalf("leftover = %+v, want [{40 48}]", leftover)
	}

	// No byte may be planned twice and plan+leftover must tile the gap.
	var cover mem.RangeSet
	var total int64
	for _, ps := range plan {
		for _, r := range cover.Overlap(ps.r.Lo, ps.r.Hi) {
			t.Fatalf("byte range [%d,%d) planned twice", r.Lo, r.Hi)
		}
		cover.Add(ps.r.Lo, ps.r.Hi)
		total += ps.r.Len()
	}
	for _, r := range leftover {
		cover.Add(r.Lo, r.Hi)
		total += r.Len()
	}
	if spans := cover.Spans(); len(spans) != 1 || spans[0].Lo != 4 || spans[0].Hi != 60 || total != 56 {
		t.Fatalf("plan+leftover does not tile the gap: spans %+v, total %d", spans, total)
	}
}

// TestPlanOwnersFullyOwned: a gap one replica covers entirely produces a
// single-span plan and no leftover.
func TestPlanOwnersFullyOwned(t *testing.T) {
	n := &NodeHandle{name: "alpha"}
	rb := &remoteBuf{creation: creation{id: 1}}
	rb.valid.Add(0, 64)
	b := &Buffer{
		ctx:    &Context{rt: &Runtime{nodes: []*NodeHandle{n}}},
		size:   64,
		remote: map[*NodeHandle]*remoteBuf{n: rb},
	}
	plan, leftover := b.planOwners(mem.Range{Lo: 10, Hi: 50})
	if len(plan) != 1 || plan[0].node != n || plan[0].r.Lo != 10 || plan[0].r.Hi != 50 {
		t.Fatalf("plan = %+v, want one span [10,50) on alpha", plan)
	}
	if len(leftover) != 0 {
		t.Fatalf("leftover = %+v, want none", leftover)
	}
}

// TestPlanOwnersNoOwners: with no replicas holding any of the gap, the
// whole gap is leftover and the plan is empty.
func TestPlanOwnersNoOwners(t *testing.T) {
	n := &NodeHandle{name: "alpha"}
	b := &Buffer{
		ctx:    &Context{rt: &Runtime{nodes: []*NodeHandle{n}}},
		size:   64,
		remote: map[*NodeHandle]*remoteBuf{},
	}
	plan, leftover := b.planOwners(mem.Range{Lo: 0, Hi: 64})
	if len(plan) != 0 {
		t.Fatalf("plan = %+v, want empty", plan)
	}
	if len(leftover) != 1 || leftover[0].Lo != 0 || leftover[0].Hi != 64 {
		t.Fatalf("leftover = %+v, want the whole gap", leftover)
	}
}

// TestDefineKeepsLaterHead pins the chain-head rule: a launch updates its
// written buffers after issue, with the buffer unlocked in between, so a
// writer issued behind it may already have defined the replica. The
// launch's define still moves validity, but must leave the larger event ID
// as the head, or a later command would chain behind the earlier event
// and could overtake the write.
func TestDefineKeepsLaterHead(t *testing.T) {
	nA := &NodeHandle{name: "alpha"}
	nB := &NodeHandle{name: "beta"}
	rbA := &remoteBuf{creation: creation{id: 1}}
	rbB := &remoteBuf{creation: creation{id: 2}}
	rbB.valid.Add(0, 64)
	b := &Buffer{size: 64, remote: map[*NodeHandle]*remoteBuf{nA: rbA, nB: rbB}}

	later := &Event{remoteID: 7}
	b.define(nA, rbA, 0, 16, later)
	b.define(nA, rbA, 0, 64, &Event{remoteID: 5})
	if rbA.head != later {
		t.Fatalf("head is event %d after defining event 5 behind 7, want 7", rbA.head.remoteID)
	}
	if !rbA.valid.Contains(0, 64) || !rbB.valid.Empty() {
		t.Fatalf("valid: alpha %v, beta %v; want alpha [0,64), beta empty", rbA.valid.String(), rbB.valid.String())
	}
	next := &Event{remoteID: 9}
	b.define(nA, rbA, 16, 32, next)
	if rbA.head != next {
		t.Fatalf("head is event %d after defining event 9, want 9", rbA.head.remoteID)
	}
}
