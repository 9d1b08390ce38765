package protocol

import (
	"math/bits"

	"github.com/haocl-project/haocl/internal/recycle"
)

// Buf is a payload-sized scratch buffer drawn from size-classed pools.
// Only buffers with a lexical lifetime are pooled (DESIGN.md §11): a
// server-side request envelope or bulk request body (dead once the last
// request it carries has been answered, or, for a PeerPush deposit, once
// its awaiter has copied it), a node's read snapshot (dead once
// the response frame is written) and a push snapshot (dead once the peer
// acknowledged it) — the bulk body above BatchableBodyLimit, the snapshots
// from ReferenceFloor on. Whoever Gets, Frees, under recycle.Pool's rules.
type Buf struct {
	// B is the buffer, exactly as long as requested. Its contents are
	// whatever the previous user left: callers overwrite all of it.
	B     []byte
	full  []byte // B's whole size-class backing slice
	class int    // pool index; -1 when the size is beyond the pooled classes
}

// Size classes step in quarter octaves — 5/8, 6/8, 7/8 and 8/8 of each
// power of two — so a pool miss allocates at most 25 % more than asked
// for. (Plain powers of two would round every "1 MiB payload plus a few
// header fields" body up to 2 MiB.) The first octave is the one
// ReferenceFloor, the smallest payload anyone pools, falls in; its smallest
// class serves everything below it too. The largest class is
// maxUpfrontBody: a larger buffer is allocated, and collected, on its own.
const (
	minClassBits = 10 // sizes in (2^9, 2^10] form the first octave
	maxClassBits = 26 // maxUpfrontBody, 64 MiB
	// NumSizeClasses is the number of payload size classes (SizeClass).
	NumSizeClasses = (maxClassBits - minClassBits + 1) * 4
)

var bufPools [NumSizeClasses]recycle.Pool[Buf]

// SizeClass maps a payload length to its size class — a pool index below
// NumSizeClasses — and the class's size, at least n. class is -1 when n is
// not positive or above the largest class: such a buffer is allocated,
// and collected, on its own.
func SizeClass(n int) (class, size int) {
	if n < 1 || n > maxUpfrontBody {
		return -1, n
	}
	k := bits.Len(uint(n - 1)) // smallest k with n <= 2^k
	if k < minClassBits {
		k = minClassBits
	}
	step := 1 << (k - 3)
	eighths := (n + step - 1) / step
	if eighths < 5 {
		eighths = 5 // only reachable in the first octave
	}
	return (k-minClassBits)*4 + eighths - 5, eighths * step
}

// GetBuf returns a buffer of length n, reusing a freed one of n's size
// class when the pool has one.
func GetBuf(n int) *Buf {
	class, size := SizeClass(n)
	if class < 0 {
		return &Buf{B: make([]byte, n), class: -1}
	}
	b := bufPools[class].Get()
	if b.full == nil {
		b.full, b.class = make([]byte, size), class
	}
	b.B = b.full[:n:n]
	return b
}

// Free returns the buffer to its pool, poisoned under the race detector
// (recycle.Poison): the caller must hold no reference into B afterwards,
// such as a decoded blob kept past its request's answer. Free on a nil Buf
// is a no-op.
func (b *Buf) Free() {
	if b == nil || b.class < 0 {
		return
	}
	recycle.Poison(b.B)
	b.B = nil
	bufPools[b.class].Put(b)
}
