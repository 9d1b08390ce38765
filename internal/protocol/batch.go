package protocol

import (
	"encoding/binary"
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
	// with their payload in place — they amortize their own syscall, and
	// keeping them out of envelopes bounds envelope size — and a request
	// body above it is read into a pooled buffer.
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

// The envelope layout: a frame header, a uint32 count, then per sub-frame
// its kind, request ID, op and length-prefixed body. appendBatchHeader and
// appendSubHeader are the one place it is written.

// appendBatchHeader appends an envelope's frame header and count.
func appendBatchHeader(buf []byte, size, count int) []byte {
	return binary.BigEndian.AppendUint32(appendHeader(buf, FrameBatch, 0, OpBatch, size), uint32(count))
}

// appendSubHeader appends one sub-frame's header, bodyLen being the length
// of the body that follows it.
func appendSubHeader(buf []byte, kind FrameKind, reqID uint64, op Op, bodyLen int) []byte {
	buf = append(buf, byte(kind))
	buf = binary.BigEndian.AppendUint64(buf, reqID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(op))
	return binary.BigEndian.AppendUint32(buf, uint32(bodyLen))
}

// AppendBatch appends the wire encoding — frame header and body — of the
// Batch envelope carrying subs, in order, to buf and returns the extended
// slice. Sub-frames must themselves be plain (non-batch) frames.
// Connections do not use it: they stage envelopes of messages
// (AppendOutgoingBatch).
func AppendBatch(buf []byte, subs []*Frame) ([]byte, error) {
	size := 4
	for _, f := range subs {
		if f.Kind == FrameBatch {
			return buf, ErrNestedBatch
		}
		size += batchSubHeader + len(f.Body)
	}
	if size > MaxFrameSize {
		return buf, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, size)
	}
	buf = appendBatchHeader(slices.Grow(buf, headerSize+size), size, len(subs))
	for _, f := range subs {
		buf = append(appendSubHeader(buf, f.Kind, f.ReqID, f.Op, len(f.Body)), f.Body...)
	}
	return buf, nil
}

// AppendOutgoingBatch appends the Batch envelope carrying run, in order,
// each message encoded straight into buf: the one encoding a message sent
// in an envelope gets. Writers keep runs small (MaxBatchMessages, MaxBatchBytes) and
// bodies above BatchableBodyLimit out of them.
func AppendOutgoingBatch(buf []byte, run []Outgoing) []byte {
	off := len(buf)
	buf = appendBatchHeader(buf, 0, len(run))
	for i := range run {
		o := &run[i]
		sub := len(buf)
		buf = encode(appendSubHeader(buf, o.Kind, o.ReqID, o.Op, 0), o.Msg, false).buf
		binary.BigEndian.PutUint32(buf[sub+batchSubHeader-4:], uint32(len(buf)-sub-batchSubHeader))
	}
	patchLength(buf, off, len(buf)-off-headerSize)
	return buf
}

// StagedSize reports the bytes a run of messages takes staged: one
// message's frame (AppendOutgoing), or the envelope carrying several
// (AppendOutgoingBatch).
func StagedSize(run []Outgoing) int {
	if len(run) == 1 {
		return run[0].WireSize()
	}
	n := headerSize + 4
	for i := range run {
		n += batchSubHeader + run[i].Size
	}
	return n
}

// EncodeBatch packs subs into a Batch envelope frame of its own, for tools
// and tests that want the envelope as a Frame.
func EncodeBatch(subs []*Frame) (*Frame, error) {
	buf, err := AppendBatch(nil, subs)
	if err != nil {
		return nil, err
	}
	return &Frame{Kind: FrameBatch, Op: OpBatch, Body: buf[headerSize:]}, nil
}

// nextSub decodes the sub-frame header and body at d's position; the body
// is a view of the envelope's.
func nextSub(d *Decoder) Frame {
	var sub Frame
	sub.Kind = FrameKind(d.U8())
	sub.ReqID = d.U64()
	sub.Op = Op(d.U16())
	sub.Body = d.Blob()
	return sub
}

// UnpackBatch appends the sub-frames of the Batch envelope f, in order, to
// dst and returns the extended slice. Sub-frames are values whose bodies
// alias f's, so a reader that reuses dst unpacks an envelope without
// allocating. Nested envelopes, truncated bodies, hostile counts and
// trailing garbage are all errors, found before anything is appended: an
// envelope that does not parse exactly poisons the connection's framing,
// so the caller must drop the connection.
func UnpackBatch(dst []Frame, f *Frame) ([]Frame, error) {
	if f.Kind != FrameBatch {
		return dst, fmt.Errorf("%w: frame kind %d is not a batch", ErrBadBatch, f.Kind)
	}
	d := Decoder{buf: f.Body}
	n := int(d.U32())
	if !d.Need(n * batchSubHeader) {
		return dst, fmt.Errorf("%w: count %d exceeds body", ErrBadBatch, n)
	}
	start := len(dst)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		sub := nextSub(&d)
		if d.Err() != nil {
			return dst[:start], fmt.Errorf("%w: sub-frame %d: %v", ErrBadBatch, i, d.Err())
		}
		if sub.Kind == FrameBatch {
			return dst[:start], ErrNestedBatch
		}
		dst = append(dst, sub)
	}
	if d.Remaining() != 0 {
		return dst[:start], fmt.Errorf("%w: %d trailing bytes", ErrBadBatch, d.Remaining())
	}
	return dst, nil
}

// DecodeBatch unpacks a Batch envelope into its sub-frames, in order, as
// UnpackBatch does: two allocations an envelope, however many messages it
// carries — one slab of sub-frames and the slice pointing into it.
func DecodeBatch(f *Frame) ([]*Frame, error) {
	slab, err := UnpackBatch(nil, f)
	if err != nil {
		return nil, err
	}
	subs := make([]*Frame, len(slab))
	for i := range slab {
		subs[i] = &slab[i]
	}
	return subs, nil
}

// batchCarries reports whether the envelope body holds a sub-frame of op.
// It reads sub-frame headers only, and stops at the first malformed one.
func batchCarries(body []byte, op Op) bool {
	d := Decoder{buf: body}
	for n := d.U32(); n > 0 && d.Err() == nil; n-- {
		if nextSub(&d).Op == op && d.Err() == nil {
			return true
		}
	}
	return false
}
