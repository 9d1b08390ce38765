package protocol

import (
	"errors"
	"fmt"
)

// Wire v3 Batch envelope: one FrameBatch frame carrying a sequence of
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
	// ride in an envelope. Bulk-data frames above it are written alone:
	// they amortize their own syscall, and keeping them out of envelopes
	// bounds envelope size.
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

// EncodeBatch packs subs into one Batch envelope frame, preserving order.
// Sub-frames must themselves be plain (non-batch) frames.
func EncodeBatch(subs []*Frame) (*Frame, error) {
	size := 4
	for _, f := range subs {
		size += batchSubHeader + f.BodyLen()
	}
	if size > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, size)
	}
	e := &Encoder{buf: make([]byte, 0, size)}
	e.U32(uint32(len(subs)))
	for _, f := range subs {
		if f.Kind == FrameBatch {
			return nil, ErrNestedBatch
		}
		e.U8(uint8(f.Kind))
		e.U64(f.ReqID)
		e.U16(uint16(f.Op))
		bulk, tail := f.Payload()
		e.U32(uint32(f.BodyLen()))
		e.buf = append(append(append(e.buf, f.Body...), bulk...), tail...)
	}
	return &Frame{Kind: FrameBatch, Op: OpBatch, Body: e.Bytes()}, nil
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
