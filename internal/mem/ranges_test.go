package mem

import (
	"math/rand"
	"testing"
)

func spansEqual(got, want []Range) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestRangeSetAddMerges(t *testing.T) {
	var s RangeSet
	s.Add(10, 20)
	s.Add(30, 40)
	if got := s.Spans(); !spansEqual(got, []Range{{10, 20}, {30, 40}}) {
		t.Fatalf("disjoint adds: %v", s.String())
	}
	// Adjacent spans coalesce.
	s.Add(20, 30)
	if got := s.Spans(); !spansEqual(got, []Range{{10, 40}}) {
		t.Fatalf("adjacent add did not merge: %v", s.String())
	}
	// Overlapping re-add is idempotent.
	s.Add(15, 35)
	if got := s.Spans(); !spansEqual(got, []Range{{10, 40}}) {
		t.Fatalf("overlapping add changed set: %v", s.String())
	}
	// Superset swallow.
	s.Add(0, 100)
	if got := s.Spans(); !spansEqual(got, []Range{{0, 100}}) {
		t.Fatalf("superset add: %v", s.String())
	}
	// Empty and inverted inputs are no-ops.
	s.Add(5, 5)
	s.Add(9, 3)
	if got := s.Spans(); !spansEqual(got, []Range{{0, 100}}) {
		t.Fatalf("degenerate add changed set: %v", s.String())
	}
}

func TestRangeSetRemoveSplits(t *testing.T) {
	var s RangeSet
	s.Add(0, 100)
	s.Remove(40, 60)
	if got := s.Spans(); !spansEqual(got, []Range{{0, 40}, {60, 100}}) {
		t.Fatalf("middle remove: %v", s.String())
	}
	s.Remove(0, 10) // leading edge
	s.Remove(90, 200)
	if got := s.Spans(); !spansEqual(got, []Range{{10, 40}, {60, 90}}) {
		t.Fatalf("edge removes: %v", s.String())
	}
	s.Remove(0, 1000)
	if !s.Empty() {
		t.Fatalf("full remove left %v", s.String())
	}
	s.Remove(0, 10) // remove from empty set
	if !s.Empty() {
		t.Fatal("remove on empty set")
	}
}

// TestRangeSetRemoveAllZeroAlloc: removing a range that covers every span
// — a kernel invalidating the other replicas of a buffer it writes —
// empties the set without building a new span list.
func TestRangeSetRemoveAllZeroAlloc(t *testing.T) {
	spans := []Range{{8, 16}, {32, 40}}
	var s RangeSet
	allocs := testing.AllocsPerRun(100, func() {
		s.spans = spans
		s.Remove(8, 40)
	})
	if !s.Empty() {
		t.Fatalf("covering remove left %v", s.String())
	}
	if allocs != 0 {
		t.Fatalf("covering remove allocates %.1f/op, want 0", allocs)
	}
}

func TestRangeSetContainsAndIntersects(t *testing.T) {
	var s RangeSet
	s.Add(10, 20)
	s.Add(30, 40)
	cases := []struct {
		lo, hi               int64
		contains, intersects bool
	}{
		{10, 20, true, true},
		{12, 18, true, true},
		{10, 21, false, true},
		{15, 35, false, true}, // spans the gap
		{20, 30, false, false},
		{0, 10, false, false},
		{40, 50, false, false},
		{5, 11, false, true},
		{39, 45, false, true},
		{15, 15, true, false}, // empty interval
	}
	for _, c := range cases {
		if got := s.Contains(c.lo, c.hi); got != c.contains {
			t.Errorf("Contains(%d,%d) = %v, want %v", c.lo, c.hi, got, c.contains)
		}
		if got := s.Intersects(c.lo, c.hi); got != c.intersects {
			t.Errorf("Intersects(%d,%d) = %v, want %v", c.lo, c.hi, got, c.intersects)
		}
	}
}

func TestRangeSetGapsAndOverlap(t *testing.T) {
	var s RangeSet
	s.Add(10, 20)
	s.Add(30, 40)
	if got := s.Gaps(0, 50); !spansEqual(got, []Range{{0, 10}, {20, 30}, {40, 50}}) {
		t.Fatalf("Gaps(0,50) = %v", got)
	}
	if got := s.Gaps(12, 18); got != nil {
		t.Fatalf("Gaps inside span = %v", got)
	}
	if got := s.Gaps(15, 35); !spansEqual(got, []Range{{20, 30}}) {
		t.Fatalf("Gaps(15,35) = %v", got)
	}
	if got := s.Overlap(15, 35); !spansEqual(got, []Range{{15, 20}, {30, 35}}) {
		t.Fatalf("Overlap(15,35) = %v", got)
	}
	if got := s.Overlap(20, 30); got != nil {
		t.Fatalf("Overlap in gap = %v", got)
	}
	if got := s.Len(); got != 20 {
		t.Fatalf("Len = %d", got)
	}
}

// TestRangeSetOracle drives random Add/Remove sequences against a naive
// per-byte bitmap and checks every query agrees — the same mirror-model
// style the coherence oracle uses one layer up.
func TestRangeSetOracle(t *testing.T) {
	const size = 256
	for _, seed := range []int64{1, 2, 42} {
		rng := rand.New(rand.NewSource(seed))
		var s RangeSet
		bitmap := make([]bool, size)
		for step := 0; step < 500; step++ {
			lo := rng.Int63n(size)
			hi := lo + rng.Int63n(size-lo+1)
			if rng.Intn(2) == 0 {
				s.Add(lo, hi)
				for i := lo; i < hi; i++ {
					bitmap[i] = true
				}
			} else {
				s.Remove(lo, hi)
				for i := lo; i < hi; i++ {
					bitmap[i] = false
				}
			}

			// Invariants: sorted, disjoint, non-adjacent, non-empty spans.
			spans := s.Spans()
			for i, sp := range spans {
				if sp.Empty() {
					t.Fatalf("seed %d step %d: empty span in %v", seed, step, s.String())
				}
				if i > 0 && spans[i-1].Hi >= sp.Lo {
					t.Fatalf("seed %d step %d: unsorted/adjacent spans %v", seed, step, s.String())
				}
			}

			// Membership agrees byte for byte via Gaps over the whole range.
			member := make([]bool, size)
			for i := int64(0); i < size; i++ {
				member[i] = true
			}
			for _, g := range s.Gaps(0, size) {
				for i := g.Lo; i < g.Hi; i++ {
					member[i] = false
				}
			}
			for i := range bitmap {
				if member[i] != bitmap[i] {
					t.Fatalf("seed %d step %d: byte %d membership = %v, want %v (%v)",
						seed, step, i, member[i], bitmap[i], s.String())
				}
			}

			// Spot-check the query methods on a random interval.
			qlo := rng.Int63n(size)
			qhi := qlo + rng.Int63n(size-qlo+1)
			wantContains, wantIntersects := true, false
			for i := qlo; i < qhi; i++ {
				if bitmap[i] {
					wantIntersects = true
				} else {
					wantContains = false
				}
			}
			if qhi <= qlo {
				wantContains = true
			}
			if got := s.Contains(qlo, qhi); got != wantContains {
				t.Fatalf("seed %d step %d: Contains(%d,%d) = %v, want %v (%v)",
					seed, step, qlo, qhi, got, wantContains, s.String())
			}
			if got := s.Intersects(qlo, qhi); got != wantIntersects {
				t.Fatalf("seed %d step %d: Intersects(%d,%d) = %v, want %v (%v)",
					seed, step, qlo, qhi, got, wantIntersects, s.String())
			}
			var overlapLen int64
			for _, o := range s.Overlap(qlo, qhi) {
				overlapLen += o.Len()
			}
			var wantOverlapLen int64
			for i := qlo; i < qhi; i++ {
				if bitmap[i] {
					wantOverlapLen++
				}
			}
			if overlapLen != wantOverlapLen {
				t.Fatalf("seed %d step %d: Overlap(%d,%d) covers %d bytes, want %d",
					seed, step, qlo, qhi, overlapLen, wantOverlapLen)
			}
		}
	}
}
