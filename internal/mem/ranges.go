package mem

import (
	"fmt"
	"strings"
)

// Range is a half-open byte interval [Lo, Hi). The coherence layer uses it
// to name the portion of a buffer a command touched.
type Range struct {
	Lo, Hi int64
}

// Len returns the interval's length in bytes.
func (r Range) Len() int64 { return r.Hi - r.Lo }

// Empty reports whether the interval covers no bytes.
func (r Range) Empty() bool { return r.Hi <= r.Lo }

// String renders the interval as [lo,hi).
func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// RangeSet is a set of byte offsets represented as sorted, disjoint,
// non-adjacent half-open intervals. The host runtime keeps one per buffer
// replica to track which byte ranges hold current data: partial writes add
// exactly the written range, invalidations remove exactly the overlapped
// ranges, and delta migration transfers only the Gaps of the range a
// command is about to touch.
//
// The zero value is the empty set. RangeSet is not safe for concurrent use;
// callers hold the owning buffer's lock.
type RangeSet struct {
	spans []Range
}

// Add marks [lo, hi) as members of the set, merging with overlapping and
// adjacent spans. Empty or inverted input is a no-op.
func (s *RangeSet) Add(lo, hi int64) {
	if hi <= lo || s.Contains(lo, hi) {
		// Re-validating what is already valid — every rewrite of a resident
		// buffer — must not cost the allocation below.
		return
	}
	out := make([]Range, 0, len(s.spans)+1)
	i := 0
	for i < len(s.spans) && s.spans[i].Hi < lo {
		out = append(out, s.spans[i])
		i++
	}
	for i < len(s.spans) && s.spans[i].Lo <= hi {
		if s.spans[i].Lo < lo {
			lo = s.spans[i].Lo
		}
		if s.spans[i].Hi > hi {
			hi = s.spans[i].Hi
		}
		i++
	}
	out = append(out, Range{lo, hi})
	out = append(out, s.spans[i:]...)
	s.spans = out
}

// Remove deletes [lo, hi) from the set, splitting spans that straddle an
// edge. Empty or inverted input is a no-op.
func (s *RangeSet) Remove(lo, hi int64) {
	if hi <= lo || len(s.spans) == 0 {
		return
	}
	if lo <= s.spans[0].Lo && hi >= s.spans[len(s.spans)-1].Hi {
		s.spans = nil // nothing survives: Reset, without the copy below
		return
	}
	out := make([]Range, 0, len(s.spans)+1)
	for _, sp := range s.spans {
		if sp.Hi <= lo || sp.Lo >= hi {
			out = append(out, sp)
			continue
		}
		if sp.Lo < lo {
			out = append(out, Range{sp.Lo, lo})
		}
		if sp.Hi > hi {
			out = append(out, Range{hi, sp.Hi})
		}
	}
	s.spans = out
}

// Reset empties the set.
func (s *RangeSet) Reset() { s.spans = nil }

// Empty reports whether the set contains no bytes.
func (s *RangeSet) Empty() bool { return len(s.spans) == 0 }

// Contains reports whether every byte of [lo, hi) is in the set. The empty
// interval is contained trivially.
func (s *RangeSet) Contains(lo, hi int64) bool {
	if hi <= lo {
		return true
	}
	for _, sp := range s.spans {
		if sp.Lo <= lo && hi <= sp.Hi {
			return true
		}
		if sp.Lo > lo {
			break
		}
	}
	return false
}

// Intersects reports whether any byte of [lo, hi) is in the set.
func (s *RangeSet) Intersects(lo, hi int64) bool {
	if hi <= lo {
		return false
	}
	for _, sp := range s.spans {
		if sp.Lo >= hi {
			return false
		}
		if sp.Hi > lo {
			return true
		}
	}
	return false
}

// Gaps returns the sub-intervals of [lo, hi) that are NOT in the set, in
// order — the stale ranges a delta migration must transfer.
func (s *RangeSet) Gaps(lo, hi int64) []Range {
	if hi <= lo {
		return nil
	}
	var gaps []Range
	cur := lo
	for _, sp := range s.spans {
		if sp.Hi <= cur {
			continue
		}
		if sp.Lo >= hi {
			break
		}
		if sp.Lo > cur {
			gaps = append(gaps, Range{cur, min(sp.Lo, hi)})
		}
		cur = sp.Hi
		if cur >= hi {
			break
		}
	}
	if cur < hi {
		gaps = append(gaps, Range{cur, hi})
	}
	return gaps
}

// Overlap returns the sub-intervals of [lo, hi) that ARE in the set, in
// order — the ranges a replica can serve during migration.
func (s *RangeSet) Overlap(lo, hi int64) []Range {
	if hi <= lo {
		return nil
	}
	var out []Range
	for _, sp := range s.spans {
		if sp.Lo >= hi {
			break
		}
		l, h := max(sp.Lo, lo), min(sp.Hi, hi)
		if l < h {
			out = append(out, Range{l, h})
		}
	}
	return out
}

// Len returns the total number of bytes in the set.
func (s *RangeSet) Len() int64 {
	var n int64
	for _, sp := range s.spans {
		n += sp.Len()
	}
	return n
}

// Spans returns a copy of the set's intervals in order.
func (s *RangeSet) Spans() []Range {
	out := make([]Range, len(s.spans))
	copy(out, s.spans)
	return out
}

// String renders the set as {[a,b) [c,d) ...} for logs and test failures.
func (s *RangeSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, sp := range s.spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(sp.String())
	}
	b.WriteByte('}')
	return b.String()
}
