package vtime

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	tm := Time(0)
	tm = tm.Add(3 * time.Second)
	if tm.Seconds() != 3 {
		t.Fatalf("Seconds() = %v, want 3", tm.Seconds())
	}
	if got := tm.Sub(Time(1e9)); got != 2*time.Second {
		t.Fatalf("Sub = %v, want 2s", got)
	}
	if got := Time(5).Add(-100 * time.Second); got != 0 {
		t.Fatalf("negative clamp: got %v, want 0", got)
	}
	if Max(Time(3), Time(7)) != Time(7) || Max(Time(7), Time(3)) != Time(7) {
		t.Fatal("Max broken")
	}
	if Time(1500).String() == "" {
		t.Fatal("String empty")
	}
}

func TestClockReserve(t *testing.T) {
	var c Clock
	s1, e1 := c.Reserve(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first reserve [%d,%d), want [0,10)", s1, e1)
	}
	// Earlier request still serializes behind the frontier.
	s2, e2 := c.Reserve(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("second reserve [%d,%d), want [10,20)", s2, e2)
	}
	// Later earliest leaves a gap.
	s3, e3 := c.Reserve(100, 10)
	if s3 != 100 || e3 != 110 {
		t.Fatalf("third reserve [%d,%d), want [100,110)", s3, e3)
	}
	if c.Now() != 110 {
		t.Fatalf("Now = %v, want 110", c.Now())
	}
	// Negative durations count as zero.
	s4, e4 := c.Reserve(0, -5)
	if s4 != e4 {
		t.Fatalf("negative duration reserved nonzero span [%d,%d)", s4, e4)
	}
	c.AdvanceTo(500)
	if c.Now() != 500 {
		t.Fatalf("AdvanceTo: Now = %v", c.Now())
	}
	c.AdvanceTo(100) // backwards is a no-op
	if c.Now() != 500 {
		t.Fatalf("AdvanceTo went backwards: %v", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("Reset did not rewind")
	}
}

// TestClockMonotonic checks under concurrency that reservations never
// overlap and the clock never moves backwards.
func TestClockMonotonic(t *testing.T) {
	var c Clock
	var mu sync.Mutex
	spans := make([][2]Time, 0, 400)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s, e := c.Reserve(0, 3)
				mu.Lock()
				spans = append(spans, [2]Time{s, e})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	seen := make(map[Time]bool)
	for _, sp := range spans {
		if sp[1]-sp[0] != 3 {
			t.Fatalf("span length %d", sp[1]-sp[0])
		}
		if seen[sp[0]] {
			t.Fatalf("overlapping reservation at %d", sp[0])
		}
		seen[sp[0]] = true
	}
}

func TestLinkCost(t *testing.T) {
	l := NewLink(time.Millisecond, 1e6) // 1 MB/s
	if got := l.TransferCost(1e6); got != time.Millisecond+time.Second {
		t.Fatalf("TransferCost = %v", got)
	}
	if got := l.TransferCost(-5); got != time.Millisecond {
		t.Fatalf("negative bytes: %v", got)
	}
}

func TestLinkBackfill(t *testing.T) {
	l := NewLink(0, 1e9) // 1 B/ns
	// Book a late transfer first.
	s1, e1 := l.Transfer(1000, 100)
	if s1 != 1000 || e1 != 1100 {
		t.Fatalf("late transfer [%v,%v)", s1, e1)
	}
	// An earlier-ready transfer must backfill the idle gap before it.
	s2, e2 := l.Transfer(0, 100)
	if s2 != 0 || e2 != 100 {
		t.Fatalf("backfill failed: [%v,%v), want [0,100)", s2, e2)
	}
	// A transfer too big for the gap goes after the booked interval.
	s3, _ := l.Transfer(200, 900)
	if s3 != 1100 {
		t.Fatalf("oversized gap fill started at %v, want 1100", s3)
	}
	// Exact-fit gap is used.
	s4, e4 := l.Transfer(100, 900)
	if s4 != 100 || e4 != 1000 {
		t.Fatalf("exact fit [%v,%v), want [100,1000)", s4, e4)
	}
}

func TestLinkPanicsOnBadBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLink accepted non-positive bandwidth")
		}
	}()
	NewLink(0, 0)
}

// TestLinkNoOverlapProperty books random transfers and asserts none of the
// returned intervals overlap.
func TestLinkNoOverlapProperty(t *testing.T) {
	check := func(seed uint8, sizes []uint16) bool {
		l := NewLink(0, 1e9)
		type span struct{ s, e Time }
		var spans []span
		for i, raw := range sizes {
			n := int64(raw%997) + 1
			earliest := Time((int(seed) + i*131) % 5000)
			s, e := l.Transfer(earliest, n)
			if s < earliest || e.Sub(s) != l.TransferCost(n) {
				return false
			}
			spans = append(spans, span{s, e})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.s < b.e && b.s < a.e {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkCoalesceKeepsBusyListSmall(t *testing.T) {
	l := NewLink(0, 1e9)
	for i := 0; i < 1000; i++ {
		l.Transfer(0, 10) // contiguous back-to-back bookings
	}
	if n := len(l.busy); n != 1 {
		t.Fatalf("busy list has %d intervals after contiguous bookings, want 1", n)
	}
	if l.Now() != Time(10*1000) {
		t.Fatalf("Now = %v", l.Now())
	}
	l.Reset()
	if l.Now() != 0 {
		t.Fatal("Reset did not clear bookings")
	}
}

// TestLinkClosesDeadGaps: bookings separated by less than Latency are one
// stored interval — the blocking round trip's pattern, where each response
// is booked at its own completion instant and never touches the one before —
// while a gap a zero-byte transfer still fits in stays open and is used.
func TestLinkClosesDeadGaps(t *testing.T) {
	const lat = 150 * time.Microsecond
	l := NewLink(lat, 1e9)
	at := Time(0)
	for i := 0; i < 1000; i++ {
		_, end := l.Transfer(at, 4096)
		at = end.Add(lat - 1) // one nanosecond short of hosting anything
	}
	if n := len(l.busy); n != 1 {
		t.Fatalf("busy list has %d intervals after bookings a dead gap apart, want 1", n)
	}
	_, end := l.Transfer(l.Now().Add(lat), 4096)
	if n := len(l.busy); n != 2 {
		t.Fatalf("busy list has %d intervals after a live gap, want 2", n)
	}
	if s, e := l.Transfer(0, 0); e != end.Add(-l.TransferCost(4096)) || e.Sub(s) != lat {
		t.Fatalf("zero-byte transfer booked [%v,%v), want the live gap ending at %v", s, e, end.Add(-l.TransferCost(4096)))
	}
	if n := len(l.busy); n != 1 {
		t.Fatalf("busy list has %d intervals once the gap is filled, want 1", n)
	}
}

// refLink is Link as it was before bookings were searched and dead gaps
// closed — Transfer and coalesce moved here verbatim — kept as the
// reference the differential test compares against: it walks the whole busy
// list twice per booking and stores every interval apart.
type refLink struct {
	Latency     Duration
	BytesPerSec float64
	busy        []interval
}

func (l *refLink) TransferCost(n int64) Duration {
	if n < 0 {
		n = 0
	}
	secs := float64(n) / l.BytesPerSec
	return l.Latency + Duration(secs*1e9)
}

func (l *refLink) Transfer(earliest Time, n int64) (start, end Time) {
	dur := l.TransferCost(n)
	if dur <= 0 {
		return earliest, earliest
	}

	start = earliest
	insertAt := len(l.busy)
	for i, iv := range l.busy {
		if iv.start.Sub(start) >= dur {
			// The gap before this interval fits.
			insertAt = i
			break
		}
		if iv.end > start {
			start = iv.end
		}
	}
	end = start.Add(dur)
	l.busy = append(l.busy, interval{})
	copy(l.busy[insertAt+1:], l.busy[insertAt:])
	l.busy[insertAt] = interval{start: start, end: end}
	l.coalesce()
	return start, end
}

func (l *refLink) coalesce() {
	out := l.busy[:0]
	for _, iv := range l.busy {
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	l.busy = out
}

func (l *refLink) Now() Time {
	if len(l.busy) == 0 {
		return 0
	}
	return l.busy[len(l.busy)-1].end
}

// checkLinkInvariants asserts what Transfer's search relies on: intervals
// are non-empty, sorted and disjoint, and no stored gap is dead.
func checkLinkInvariants(t *testing.T, l *Link) {
	t.Helper()
	for i, iv := range l.busy {
		if iv.end <= iv.start {
			t.Fatalf("interval %d is empty: [%d,%d)", i, iv.start, iv.end)
		}
		if i == 0 {
			continue
		}
		if gap := iv.start.Sub(l.busy[i-1].end); gap <= 0 || gap < l.Latency {
			t.Fatalf("intervals %d and %d are %v apart with Latency %v: [%d,%d) [%d,%d)",
				i-1, i, gap, l.Latency, l.busy[i-1].start, l.busy[i-1].end, iv.start, iv.end)
		}
	}
}

// TestLinkMatchesLinearReference is the proof that neither the search nor
// the closed gaps moved a virtual instant: seeded streams of bookings —
// several interleaved command streams that each advance their own clock,
// the way blocking and pipelined sessions share a NIC, mixed with bookings
// at instant zero, in the far past and beyond the frontier, of 0 to 1 MiB,
// some a dead gap apart and some a live one — get the same (start, end) from
// every call, and the same Now, as the linear reference.
func TestLinkMatchesLinearReference(t *testing.T) {
	for _, lat := range []Duration{0, time.Microsecond, 150 * time.Microsecond} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			l := NewLink(lat, 125e6)
			ref := &refLink{Latency: lat, BytesPerSec: 125e6}
			streams := make([]Time, 1+rng.Intn(4))
			for i := 0; i < 3000; i++ {
				var n int64
				switch rng.Intn(4) {
				case 0: // a control message
					n = int64(rng.Intn(512))
				case 1:
					n = int64(rng.Intn(16 << 10))
				case 2:
					n = int64(rng.Intn(1<<20 + 1))
				}
				var earliest Time
				s := rng.Intn(len(streams))
				switch rng.Intn(10) {
				case 0: // instant zero: backfills the oldest gap that fits
				case 1: // anywhere in the past
					earliest = Time(rng.Int63n(int64(ref.Now()) + 1))
				case 2: // beyond the frontier
					earliest = ref.Now().Add(Duration(rng.Int63n(int64(4*lat) + 2000)))
				default: // the stream's own clock, after a think time either side of Latency
					earliest = streams[s].Add(Duration(rng.Int63n(int64(2*lat) + 3)))
				}
				gs, ge := l.Transfer(earliest, n)
				ws, we := ref.Transfer(earliest, n)
				if gs != ws || ge != we {
					t.Fatalf("latency %v seed %d booking %d: Transfer(%d, %d) = [%d,%d), reference [%d,%d)",
						lat, seed, i, earliest, n, gs, ge, ws, we)
				}
				if l.Now() != ref.Now() {
					t.Fatalf("latency %v seed %d booking %d: Now = %d, reference %d", lat, seed, i, l.Now(), ref.Now())
				}
				streams[s] = ge
				if i%100 == 0 {
					checkLinkInvariants(t, l)
				}
			}
			checkLinkInvariants(t, l)
			if len(l.busy) > len(ref.busy) {
				t.Fatalf("latency %v seed %d: %d intervals stored, reference %d", lat, seed, len(l.busy), len(ref.busy))
			}
		}
	}
}

// BenchmarkLinkTransferAged books the blocking round trip's pattern — each
// transfer a dead gap after the one before — on a link that retains 10 and
// 100 000 older intervals (live gaps nothing backfilled). A booking's cost
// must not depend on the link's age: the two are within 2x of each other
// (the linear walk this replaced was 10 000x apart).
func BenchmarkLinkTransferAged(b *testing.B) {
	const lat = 150 * time.Microsecond
	for _, retained := range []int{10, 100000} {
		b.Run(fmt.Sprintf("retained=%d", retained), func(b *testing.B) {
			l := NewLink(lat, 125e6)
			at := Time(0)
			for i := 0; i < retained; i++ {
				_, end := l.Transfer(at, 4096)
				at = end.Add(lat)
			}
			if len(l.busy) != retained {
				b.Fatalf("aged link retains %d intervals, want %d", len(l.busy), retained)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, end := l.Transfer(at, 4096)
				at = end.Add(lat / 2)
			}
			b.StopTimer()
			if len(l.busy) != retained+1 {
				b.Fatalf("link grew to %d intervals while timed, want %d", len(l.busy), retained+1)
			}
		})
	}
}
