// Package vtime provides the virtual-time primitives used by the simulated
// devices and the network model.
//
// Every experiment in this repository reports durations measured on a
// virtual clock rather than the wall clock: functional execution is real Go
// code, but the time a command "takes" is computed by an analytic
// performance model (see internal/sim). This makes every figure
// deterministic and independent of the machine running the reproduction.
//
// haoclvet:deterministic — wall-clock reads and unordered iteration are
// forbidden here by construction.
package vtime

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Time is an instant on the virtual timeline, in nanoseconds since the
// start of the run. The zero Time is the beginning of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is layout-compatible
// with time.Duration so model code can use time.Duration literals.
type Duration = time.Duration

// Add returns t shifted forward by d. Negative durations are clamped so a
// model bug can never move the clock backwards past zero.
func (t Time) Add(d Duration) Time {
	nt := t + Time(d)
	if nt < 0 {
		return 0
	}
	return nt
}

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the instant as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Max returns the later of the two instants.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Clock is a monotonically advancing virtual clock. One Clock models one
// serialized resource: a device command queue, a network link, the host
// memory subsystem. Reserving a span returns the interval the work occupies
// on that resource.
//
// The zero value is a clock at virtual time zero, ready to use.
type Clock struct {
	mu  sync.Mutex
	now Time
}

// Now returns the clock's current frontier: the virtual instant at which the
// resource next becomes free.
func (c *Clock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Reserve books d units of work that may not start before earliest. It
// returns the interval [start, end) that the work occupies and advances the
// clock frontier to end. Negative durations count as zero.
func (c *Clock) Reserve(earliest Time, d Duration) (start, end Time) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	start = Max(c.now, earliest)
	end = start.Add(d)
	c.now = end
	return start, end
}

// AdvanceTo moves the frontier forward to at least t. Used when an external
// dependency (an event on another resource) holds the resource idle.
func (c *Clock) AdvanceTo(t Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
}

// Reset rewinds the clock to zero. Only tests and fresh experiment runs use
// this.
func (c *Clock) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = 0
}

// Link models a serialized communication or memory channel with fixed
// per-message latency and finite bandwidth. It is used for the Gigabit
// Ethernet links between the host and device nodes and for the host memory
// subsystem during data creation.
//
// Unlike Clock, a Link backfills: a transfer that becomes ready at a late
// virtual instant does not push the channel frontier for earlier idle
// time, so independent command streams interleave on the shared channel
// the way packets do on a real NIC.
//
// Booked time is kept as a list of busy intervals, sorted, disjoint, and
// with every idle gap between two neighbours at least max(Latency, 1 ns)
// long. A shorter gap is dead — every transfer costs at least Latency, so
// none can ever be placed in it — and the two bookings around it are stored
// as one interval: whatever is asked of the link afterwards, a transfer
// either ends before such a pair or starts after it, exactly as it would
// with the gap kept. A booking therefore costs a binary search plus the
// live gaps it is too long for, whatever the link's age (DESIGN.md §1).
type Link struct {
	// Latency is charged once per transfer, before any byte moves, and
	// BytesPerSec is the sustained bandwidth of the channel. Both are fixed
	// once the link has booked its first transfer.
	Latency     Duration
	BytesPerSec float64

	mu   sync.Mutex
	busy []interval // sorted by start, disjoint, no gap shorter than Latency
}

type interval struct {
	start, end Time
}

// NewLink returns a link with the given per-message latency and bandwidth.
// It panics if bandwidth is not positive; links are constructed from static
// model presets, so a bad value is a programming error.
func NewLink(latency Duration, bytesPerSec float64) *Link {
	if bytesPerSec <= 0 {
		panic("vtime: link bandwidth must be positive")
	}
	return &Link{Latency: latency, BytesPerSec: bytesPerSec}
}

// TransferCost returns the modeled duration of moving n bytes, excluding
// queueing behind other transfers.
func (l *Link) TransferCost(n int64) Duration {
	if n < 0 {
		n = 0
	}
	secs := float64(n) / l.BytesPerSec
	return l.Latency + Duration(secs*1e9)
}

// Transfer books an n-byte transfer that may not begin before earliest,
// placing it in the first idle gap that fits, and returns the interval it
// occupies on the link.
func (l *Link) Transfer(earliest Time, n int64) (start, end Time) {
	dur := l.TransferCost(n)
	if dur <= 0 {
		return earliest, earliest
	}
	l.mu.Lock()
	defer l.mu.Unlock()

	// Intervals that end at or before earliest can neither host nor delay
	// the transfer; every one from i on ends after start, so each either
	// leaves a gap that fits in front of it or pushes start to its end.
	busy := l.busy
	i := sort.Search(len(busy), func(i int) bool { return busy[i].end > earliest })
	start = earliest
	for ; i < len(busy) && busy[i].start.Sub(start) < dur; i++ {
		start = busy[i].end
	}
	end = start.Add(dur)

	// The booking goes between busy[i-1] and busy[i], merging with whichever
	// of the two it leaves no live gap to.
	left := i > 0 && l.dead(start.Sub(busy[i-1].end))
	right := i < len(busy) && l.dead(busy[i].start.Sub(end))
	switch {
	case left && right:
		busy[i-1].end = busy[i].end
		l.busy = append(busy[:i], busy[i+1:]...)
	case left:
		busy[i-1].end = end
	case right:
		busy[i].start = start
	default:
		busy = append(busy, interval{})
		copy(busy[i+1:], busy[i:])
		busy[i] = interval{start: start, end: end}
		l.busy = busy
	}
	return start, end
}

// dead reports whether an idle gap of length gap can never host a transfer:
// it is empty, or shorter than the cheapest one.
func (l *Link) dead(gap Duration) bool { return gap <= 0 || gap < l.Latency }

// Now reports the link's latest booked instant.
func (l *Link) Now() Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.busy) == 0 {
		return 0
	}
	return l.busy[len(l.busy)-1].end
}

// Reset clears all bookings.
func (l *Link) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.busy = nil
}
