// Package recycle is the one mechanism behind the runtime's pooled
// records (DESIGN.md §11): a typed pool, a count of a shared record's
// owners, and the race-detector build's checks on both. Each record type
// keeps only its own reset.
package recycle

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Pool recycles records of type T; the zero Pool is empty and ready. Like
// the sync.Pool behind it, it empties itself under GC, so there is no bound
// to tune. Whoever Gets a record resets it and Puts it back, or drops it,
// which costs an allocation, never correctness.
//
// In a race-detector build a record carries a mark behind it, out of its
// reset's reach, that Put sets and Get clears: a second Put of a record
// nobody took out again panics.
type Pool[T any] struct{ p sync.Pool }

// slot is a record and its mark, as a race-detector build allocates them:
// a *T from Get is the address of its slot.
type slot[T any] struct {
	v      T
	pooled atomic.Bool
}

func mark[T any](v *T) *atomic.Bool { return &(*slot[T])(unsafe.Pointer(v)).pooled }

// Get returns a record from the pool, or a new zero one.
func (p *Pool[T]) Get() *T {
	v, _ := p.p.Get().(*T)
	if v == nil {
		if Race {
			return &new(slot[T]).v
		}
		return new(T)
	}
	if Race {
		mark(v).Store(false)
	}
	return v
}

// Put gives back v, which this pool's Get returned; the caller has reset
// it and no longer references it.
func (p *Pool[T]) Put(v *T) {
	if Race && mark(v).Swap(true) {
		panic("recycle: record put back twice")
	}
	p.p.Put(v)
}

// Holds counts the owners of a record that has several; the last to
// Release gives it back. The zero Holds counts none: a record that is not
// pooled, on which Hold and Release do nothing. A record given back reads
// -1, and each Release past the last one less; in a race-detector build a
// Hold or Release past the last panics.
type Holds struct{ n atomic.Int32 }

// Set gives the record n owners, before anyone else can see it.
func (h *Holds) Set(n int32) { h.n.Store(n) }

// Hold adds an owner and reports whether the record is pooled; one that
// counts none takes none. The caller must be an owner already.
func (h *Holds) Hold() bool {
	n := h.n.Load()
	if n < 0 && Race {
		panic("recycle: hold on a record given back")
	}
	if n <= 0 {
		return false
	}
	h.n.Add(1)
	return true
}

// Release lets one owner go and reports whether it was the last, whose
// caller then gives the record back.
func (h *Holds) Release() bool {
	for {
		n := h.n.Load()
		if n < 0 && Race {
			panic("recycle: release past the last")
		}
		next := n - 1
		if n == 0 {
			return false
		} else if n == 1 {
			next = -1
		}
		if h.n.CompareAndSwap(n, next) {
			return n == 1
		}
	}
}

// Count reports how many owners h counts: -1 once the record is given
// back, one less for each Release past the last.
func (h *Holds) Count() int32 { return h.n.Load() }

// PoisonByte is what Poison writes.
const PoisonByte = 0xDB

// Poison overwrites b with PoisonByte in a race-detector build, and does
// nothing otherwise: whoever gives memory back to a pool calls it first, so
// a view kept past the give-back reads garbage in the tests that run there.
func Poison(b []byte) {
	if Race {
		for i := range b {
			b[i] = PoisonByte
		}
	}
}
