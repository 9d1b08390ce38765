// Package protocol defines the binary wire protocol spoken between the
// HaoCL host runtime and the Node Management Processes (NMPs) on device
// nodes.
//
// Every OpenCL API call issued by an application is packaged by the wrapper
// library into exactly one request message that carries the function
// identity and its arguments (paper §III-B); bulk buffer contents travel in
// the same frame as the request or response body. Frames are
// length-prefixed so listeners can read them asynchronously without
// knowing message internals (paper §III-C).
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Protocol limits. MaxFrameSize bounds a single message so a corrupted
// length prefix cannot make a listener allocate unbounded memory.
const (
	// Magic identifies a HaoCL frame; the accidental-connection case
	// (something else dialing the NMP port) fails fast.
	Magic = 0x4841 // "HA"

	// Version is the wire protocol version, the only one this build speaks:
	// every frame carries it, ReadFrame refuses any other, and a node
	// refuses a Hello offering any other.
	Version = 5

	// MaxFrameSize is the largest permitted frame body (1 GiB), sized to
	// hold the largest Table I benchmark input with headroom.
	MaxFrameSize = 1 << 30

	// maxUpfrontBody (64 MiB) is the most body a frame reader allocates on
	// its header's word alone, and the largest pooled size class: four
	// times the largest frame any workload sends (a 16 MiB payload plus its
	// fields). A longer body grows as its bytes arrive, so a lying length
	// prefix costs at most this much before the stream ends.
	maxUpfrontBody = 1 << maxClassBits

	headerSize = 2 + 1 + 1 + 8 + 2 + 4 // magic, version, kind, reqID, op, length
)

// FrameKind distinguishes requests from responses on a connection.
type FrameKind uint8

// Frame kinds. FrameBatch envelopes a sequence of request or
// response frames in one wire frame; see AppendBatch.
const (
	FrameRequest FrameKind = iota + 1
	FrameResponse
	FrameBatch
)

// Errors returned by the framing layer.
var (
	ErrBadMagic     = errors.New("protocol: bad frame magic")
	ErrBadVersion   = errors.New("protocol: wire version mismatch")
	ErrFrameTooBig  = errors.New("protocol: frame exceeds size limit")
	ErrShortMessage = errors.New("protocol: truncated message body")
)

// Frame is one received unit on the wire: a request or response envelope
// plus an opcode-specific body. Frames are what readers return;
// connection writers send messages (Outgoing) and never build one.
type Frame struct {
	Kind  FrameKind
	Op    Op
	ReqID uint64
	Body  []byte

	// pooled is the pooled buffer Body lives in, for a frame read by
	// ReadFramePooled; nil for every other frame. See Release.
	pooled *Buf
}

// Release returns the pooled buffer f's body lives in, if any, to its
// pool; the frame's bytes, and every view decoded from them, must not be
// used afterwards. The reader of a pooled frame calls it once the last
// request the frame carries has been answered. It is a no-op for every
// other frame.
func (f *Frame) Release() {
	if f.pooled == nil {
		return
	}
	f.pooled.Free()
	f.pooled, f.Body = nil, nil
}

// Detach hands the pooled buffer f's body lives in, if any, to the caller,
// who frees it once nothing views the body any more; f no longer owns it,
// so a later Release is a no-op. It returns nil for every other frame,
// whose body is the collector's.
func (f *Frame) Detach() *Buf {
	b := f.pooled
	f.pooled = nil
	return b
}

// BodyKeeper is a response whose handler keeps its request's body past
// the response: a node parking a PeerPush deposit until the matching
// AwaitPush consumes it. Once the response is written, the server hands
// it the pooled buffer the body lives in (Frame.Detach; nil when the body
// is not pooled), instead of recycling it.
type BodyKeeper interface {
	Message
	KeepBody(*Buf)
}

func appendHeader(buf []byte, kind FrameKind, reqID uint64, op Op, bodyLen int) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, headerSize)...)
	binary.BigEndian.PutUint16(buf[off:off+2], Magic)
	buf[off+2] = Version
	buf[off+3] = byte(kind)
	binary.BigEndian.PutUint64(buf[off+4:off+12], reqID)
	binary.BigEndian.PutUint16(buf[off+12:off+14], uint16(op))
	binary.BigEndian.PutUint32(buf[off+14:off+18], uint32(bodyLen))
	return buf
}

// patchLength sets the body length of the header at buf[off:] to n.
func patchLength(buf []byte, off, n int) {
	binary.BigEndian.PutUint32(buf[off+14:off+18], uint32(n))
}

// AppendFrame appends f's wire encoding (header + body) to buf and returns
// the extended slice.
func AppendFrame(buf []byte, f *Frame) ([]byte, error) {
	if len(f.Body) > MaxFrameSize {
		return buf, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, len(f.Body))
	}
	return append(appendHeader(buf, f.Kind, f.ReqID, f.Op, len(f.Body)), f.Body...), nil
}

// WriteFrame serializes f to w as one buffer: header and body are copied
// together and written with a single Write. No connection's data path uses
// it — transports encode messages straight into their writer's buffer
// (Outgoing) — it remains for tools and tests that want one frame on an
// io.Writer.
func WriteFrame(w io.Writer, f *Frame) error {
	buf, err := AppendFrame(make([]byte, 0, headerSize+len(f.Body)), f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Outgoing is a message on its way to the wire, not yet encoded: the frame
// header's fields and the message its body encodes. Connection writers
// queue outgoing messages by value and encode each exactly once, straight
// into the buffer they hand the connection: AppendOutgoing for a frame of
// its own, AppendOutgoingBatch for a run packed into an envelope, and
// AppendOutgoingHead for a bulk frame whose payload is written in place.
//
// Msg, and everything it references, must stay unmodified until the
// connection's writer has staged it or written it in place, which happens
// after the sender's Go returned. A success response implies it; a failed
// call does not, since the writer may still be writing it. A message with
// a Free method borrows its payload until then, and the writer calls Free
// the moment it has staged or written it (ReadBufferResp.Free).
type Outgoing struct {
	ReqID uint64
	Msg   Message // nil: an empty body
	Size  int     // the encoded body's length, MessageSize(Msg)
	Op    Op
	Kind  FrameKind
}

// NewOutgoing sizes m for the frame that will carry it.
func NewOutgoing(kind FrameKind, reqID uint64, op Op, m Message) Outgoing {
	return Outgoing{Kind: kind, ReqID: reqID, Op: op, Msg: m, Size: MessageSize(m)}
}

// WireSize reports the bytes o's frame occupies on the wire (header +
// body), the unit coalescing writers budget their queues in.
func (o *Outgoing) WireSize() int { return headerSize + o.Size }

// AppendOutgoing appends o's frame — header and body, the message encoded
// straight into buf — and returns the extended slice.
func AppendOutgoing(buf []byte, o *Outgoing) []byte {
	off := len(buf)
	e := encode(appendHeader(buf, o.Kind, o.ReqID, o.Op, 0), o.Msg, false)
	patchLength(e.buf, off, len(e.buf)-off-headerSize)
	return e.buf
}

// AppendOutgoingHead appends o's frame without its payload — the first
// blob of at least ReferenceFloor bytes — for a vectored writer that sends
// the payload from where it lies: the frame on the wire is
// out[:split] ‖ payload ‖ out[split:], the same bytes AppendOutgoing would
// have staged. payload is nil when the message carries no such blob.
func AppendOutgoingHead(buf []byte, o *Outgoing) (out []byte, split int, payload []byte) {
	off := len(buf)
	e := encode(appendHeader(buf, o.Kind, o.ReqID, o.Op, 0), o.Msg, true)
	patchLength(e.buf, off, len(e.buf)-off-headerSize+len(e.bulk))
	if e.bulk == nil {
		e.split = len(e.buf)
	}
	return e.buf, e.split, e.bulk
}

// ReadFrame reads one frame from r, validating magic, version and size.
// The body is freshly allocated and belongs to the caller.
func ReadFrame(r io.Reader) (*Frame, error) { return readFrame(r, false) }

// ReadFramePooled is ReadFrame for a server's request stream: the body of
// a bulk request frame (above BatchableBodyLimit) and of every request
// envelope comes from the payload pool, and the caller must Release the
// frame once the last request it carries has been answered. Messages
// decoded from the body are views of it, so they die with it. A handler
// that keeps a plain request's body longer — a PeerPush deposit, parked
// until the matching AwaitPush arrives — answers with a BodyKeeper, which
// takes the buffer over. An envelope carrying a PeerPush is not pooled:
// its body is the collector's.
func ReadFramePooled(r io.Reader) (*Frame, error) { return readFrame(r, true) }

// headers pools readFrame's header scratch: an array handed to an
// io.Reader escapes, so a local one would cost every frame an allocation.
// This package is linked ahead of math/rand, so readFrame's size decides
// whether math/rand.read starts on a 64-byte boundary, where the
// repository benchmark's payload fill runs 20 % slow: check an edit here
// with scripts/bench_align.sh (with go1.24.0 a deferred Put reads 0 mod 64,
// this form 32 mod 64).
var headers = sync.Pool{New: func() any { return new([headerSize]byte) }}

func readFrame(r io.Reader, pool bool) (*Frame, error) {
	hdr := headers.Get().(*[headerSize]byte)
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		headers.Put(hdr)
		return nil, err
	}
	magic, version := binary.BigEndian.Uint16(hdr[0:2]), hdr[2]
	kind, op := FrameKind(hdr[3]), Op(binary.BigEndian.Uint16(hdr[12:14]))
	reqID, n := binary.BigEndian.Uint64(hdr[4:12]), binary.BigEndian.Uint32(hdr[14:18])
	headers.Put(hdr)
	if magic != Magic {
		return nil, ErrBadMagic
	}
	if version != Version {
		return nil, fmt.Errorf("%w: got %d want %d", ErrBadVersion, version, Version)
	}
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	if n > maxUpfrontBody {
		body, err := readGrowing(r, int(n))
		if err != nil {
			return nil, err
		}
		return &Frame{Kind: kind, Op: op, ReqID: reqID, Body: body}, nil
	}
	var f *Frame
	if pool && n > 0 && (kind == FrameBatch || kind == FrameRequest && n > BatchableBodyLimit) {
		b := GetBuf(int(n))
		f = &Frame{Body: b.B, pooled: b}
	} else {
		f = allocFrame(int(n))
		f.Body = f.Body[:n]
	}
	f.Kind, f.Op, f.ReqID = kind, op, reqID
	if n > 0 {
		if _, err := io.ReadFull(r, f.Body); err != nil {
			return nil, err // a pooled body is left to the collector
		}
	}
	if f.pooled != nil && kind == FrameBatch && batchCarries(f.Body, OpPeerPush) {
		f.pooled = nil // a parked deposit outlives its response: the body is the collector's now
	}
	return f, nil
}

// readGrowing reads a body of n > maxUpfrontBody bytes, allocating
// maxUpfrontBody up front and doubling only once that much has arrived.
func readGrowing(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, 0, maxUpfrontBody)
	for len(body) < n {
		if len(body) == cap(body) {
			body = append(body, make([]byte, min(len(body), n-len(body)))...)[:len(body)]
		}
		got, err := io.ReadFull(r, body[len(body):min(n, cap(body))])
		body = body[:len(body)+got]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	return body, nil
}

// ReferenceFloor is the payload size from which a sender's snapshot of one
// is worth taking from the payload pool, and from which a bulk frame's
// writer references the payload instead of staging it
// (AppendOutgoingHead): the largest body allocFrame stores inline. Below it
// a received body and its Frame are one allocation; from it on, a payload
// is an allocation of its own size.
const ReferenceFloor = 976

// allocFrame returns a zero Frame whose Body is empty with room for n
// bytes. A small received body's storage comes with the Frame in one
// allocation — the two die together anyway; the inline sizes land the
// struct on the allocator's 64, 96, 192, 384 and 1024 byte classes. A
// larger body is allocated on its own, exactly n bytes.
func allocFrame(n int) *Frame {
	switch {
	case n == 0:
		return &Frame{}
	case n <= 16:
		s := new(struct {
			Frame
			b [16]byte
		})
		s.Body = s.b[:0]
		return &s.Frame
	case n <= 48:
		s := new(struct {
			Frame
			b [48]byte
		})
		s.Body = s.b[:0]
		return &s.Frame
	case n <= 144:
		s := new(struct {
			Frame
			b [144]byte
		})
		s.Body = s.b[:0]
		return &s.Frame
	case n <= 336:
		s := new(struct {
			Frame
			b [336]byte
		})
		s.Body = s.b[:0]
		return &s.Frame
	case n <= ReferenceFloor:
		s := new(struct {
			Frame
			b [ReferenceFloor]byte
		})
		s.Body = s.b[:0]
		return &s.Frame
	}
	return &Frame{Body: make([]byte, 0, n)}
}

// Encoder appends primitive values to a message body. All integers are
// big-endian. Strings and byte slices are length-prefixed with uint32.
type Encoder struct {
	buf []byte

	// byRef makes Blob reference, instead of copy, the first payload of at
	// least ReferenceFloor bytes (AppendOutgoingHead): bulk is that payload
	// and split where in buf it belongs.
	byRef bool
	bulk  []byte
	split int
}

// U8 appends a uint8.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a uint16.
func (e *Encoder) U16(v uint16) {
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
}

// U32 appends a uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// U64 appends a uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// I64 appends an int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	if e.byRef && e.bulk == nil && len(b) >= ReferenceFloor {
		e.bulk, e.split = b, len(e.buf)
		return
	}
	e.buf = append(e.buf, b...)
}

// Ints appends a length-prefixed slice of int64 values.
func (e *Encoder) Ints(vs []int64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.I64(v)
	}
}

// Decoder consumes primitive values from a message body. Decoding errors
// are sticky: after the first failure every subsequent read reports the
// original error, so a message's fields walk can decode unconditionally and
// DecodeMessage check the error once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over body.
func NewDecoder(body []byte) *Decoder { return &Decoder{buf: body} }

// Err reports the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports how many bytes have not been consumed.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrShortMessage
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Need reports whether at least n more bytes remain, marking the decoder
// failed otherwise. Collection decoders call it before allocating
// count-sized slices, asking for the count times the smallest element, so
// a truncated or hostile count is an error, not a silent partial decode or
// an allocation larger than the body.
func (d *Decoder) Need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || n > d.Remaining() {
		d.fail()
		return false
	}
	return true
}

// U8 reads a uint8.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := int(d.U32())
	b := d.take(n)
	return string(b)
}

// Blob reads a length-prefixed byte slice. The result is a view of the
// body being decoded, not a copy: a decoded message lives exactly as long
// as the frame body it came from (DESIGN.md §11 says who may retain which
// body). Zero-length blobs decode to nil so encode/decode round trips are
// identity on the struct level.
func (d *Decoder) Blob() []byte {
	n := int(d.U32())
	if n == 0 {
		return nil
	}
	return d.take(n)
}

// Ints reads a length-prefixed slice of int64 values; zero-length slices
// decode to nil.
func (d *Decoder) Ints() []int64 { return d.intsInto(nil) }

// intsInto is Ints decoding into dst's capacity when it holds the count,
// and into a fresh slice otherwise: it never writes past cap(dst).
func (d *Decoder) intsInto(dst []int64) []int64 {
	n := int(d.U32())
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if n < 0 || n*8 > d.Remaining() {
		d.fail()
		return nil
	}
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	vs := dst[:n]
	for i := range vs {
		vs[i] = d.I64()
	}
	return vs
}
