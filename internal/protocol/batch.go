package protocol

import (
	"errors"
	"fmt"
	"slices"
)

// Batch envelope: one FrameBatch frame carrying a sequence of
// ordinary request or response frames. Coalescing bursts of small control
// messages into one frame (and one syscall) amortizes the per-frame header
// and per-write overhead that dominates the pipelined command path once
// round trips are gone. The envelope changes nothing about the messages
// inside it: receivers unpack the sub-frames and feed them to the exact
// same dispatch path, in envelope order, so the pipeline's
// wire-order-equals-execution-order invariant is untouched.

// Batching thresholds. They bound how much a coalescing writer packs into
// one envelope; receivers accept any envelope up to MaxFrameSize.
const (
	// MaxBatchMessages caps the sub-frames per envelope.
	MaxBatchMessages = 64

	// MaxBatchBytes caps the accumulated sub-frame body bytes per
	// envelope; a run of messages is flushed once it crosses this.
	MaxBatchBytes = 64 << 10

	// BatchableBodyLimit is the largest body a frame may have and still
	// ride in an envelope. Bulk-data frames above it are written alone and
	// in place — they amortize their own syscall, and keeping them out of
	// envelopes bounds envelope size — and a request body above it is read
	// into a pooled buffer. It says nothing about copying: a payload is
	// referenced by its frame from ReferenceFloor on.
	BatchableBodyLimit = 16 << 10
)

// Batch-envelope errors.
var (
	ErrNestedBatch = errors.New("protocol: nested batch frame")
	ErrBadBatch    = errors.New("protocol: malformed batch frame")
)

// batchSubHeader is the per-sub-frame overhead inside an envelope:
// kind (1) + reqID (8) + op (2) + body length (4).
const batchSubHeader = 1 + 8 + 2 + 4

// AppendBatch appends the wire encoding — frame header and body — of the
// Batch envelope carrying subs, in order, to buf and returns the extended
// slice. It is the one place the envelope layout is written: a coalescing
// writer stages a run of frames through it, each sub-frame's pieces (Body,
// referenced payload, tail) copied once, from where they lie. Sub-frames
// must themselves be plain (non-batch) frames.
func AppendBatch(buf []byte, subs []*Frame) ([]byte, error) {
	size := 4
	for _, f := range subs {
		if f.Kind == FrameBatch {
			return buf, ErrNestedBatch
		}
		size += batchSubHeader + f.BodyLen()
	}
	if size > MaxFrameSize {
		return buf, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, size)
	}
	buf = slices.Grow(buf, headerSize+size)
	e := Encoder{buf: appendHeader(buf, FrameBatch, 0, OpBatch, size)}
	e.U32(uint32(len(subs)))
	for _, f := range subs {
		e.U8(uint8(f.Kind))
		e.U64(f.ReqID)
		e.U16(uint16(f.Op))
		e.U32(uint32(f.BodyLen()))
		bulk, tail := f.Payload()
		e.buf = append(append(append(e.buf, f.Body...), bulk...), tail...)
	}
	return e.buf, nil
}

// EncodeBatch packs subs into a Batch envelope frame of its own, for tools
// and tests that want the envelope as a Frame; connections stage envelopes
// with AppendBatch.
func EncodeBatch(subs []*Frame) (*Frame, error) {
	buf, err := AppendBatch(nil, subs)
	if err != nil {
		return nil, err
	}
	return &Frame{Kind: FrameBatch, Op: OpBatch, Body: buf[headerSize:]}, nil
}

// DecodeBatch unpacks a Batch envelope into its sub-frames, in order.
// Nested envelopes, truncated bodies, hostile counts and trailing garbage
// are all errors: an envelope that does not parse exactly poisons the
// connection's framing, so the caller must drop the connection.
func DecodeBatch(f *Frame) ([]*Frame, error) {
	if f.Kind != FrameBatch {
		return nil, fmt.Errorf("%w: frame kind %d is not a batch", ErrBadBatch, f.Kind)
	}
	d := Decoder{buf: f.Body}
	n := int(d.U32())
	if !d.Need(n * batchSubHeader) {
		return nil, fmt.Errorf("%w: count %d exceeds body", ErrBadBatch, n)
	}
	// One slab holds every sub-frame: an envelope costs two allocations
	// however many messages it carries, and the slab lives as long as any
	// of them — no longer than the envelope body they all alias anyway.
	slab := make([]Frame, n)
	subs := make([]*Frame, n)
	for i := range slab {
		sub := &slab[i]
		sub.Kind = FrameKind(d.U8())
		sub.ReqID = d.U64()
		sub.Op = Op(d.U16())
		// Bodies alias the envelope buffer: sub-frames go straight into
		// the dispatch path that plain frames take, and envelope bodies
		// are never pooled, so skipping the copy keeps the per-message
		// overhead this layer exists to remove.
		sub.Body = d.Blob()
		if d.Err() != nil {
			return nil, fmt.Errorf("%w: sub-frame %d: %v", ErrBadBatch, i, d.Err())
		}
		if sub.Kind == FrameBatch {
			return nil, ErrNestedBatch
		}
		subs[i] = sub
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadBatch, d.Remaining())
	}
	return subs, nil
}
