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
	Version = 4

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

// Frame is one unit on the wire: a request or response envelope plus an
// opcode-specific body.
//
// A received frame's body is contiguous in Body. A frame built by NewFrame
// from a message carrying a payload of at least ReferenceFloor bytes is in
// three pieces instead — Body holds only the fields before the payload, and
// Payload returns the referenced payload and the fields after it — the
// bytes on the wire being the same either way. BodyLen, not len(Body), is a
// frame's body length.
type Frame struct {
	Kind  FrameKind
	Op    Op
	ReqID uint64
	Body  []byte

	// ref is what only frames with a referenced payload or a pooled body
	// carry; nil for every small frame, which keeps the per-command Frame at
	// its pre-bulk size.
	ref *payloadRef
}

// payloadRef is the referenced part of a frame.
type payloadRef struct {
	// bulk is the referenced payload of a frame encoded by reference and
	// tail the encoded fields that follow it on the wire.
	bulk []byte
	tail []byte
	// pooled is the pooled buffer the frame owns, if any: the Body of a
	// frame read by ReadFramePooled, or the bulk of a frame whose message
	// handed over a pooled payload (ReadBufferResp.Pooled). See Release.
	pooled *Buf
}

// Payload returns the rest of a by-reference frame's body: the wire body
// is Body ‖ bulk ‖ tail. Both are nil for a frame whose body is contiguous.
// bulk must stay unmodified until the frame has been written.
func (f *Frame) Payload() (bulk, tail []byte) {
	if f.ref == nil {
		return nil, nil
	}
	return f.ref.bulk, f.ref.tail
}

// BodyLen reports the length of f's body on the wire.
func (f *Frame) BodyLen() int {
	n := len(f.Body)
	if f.ref != nil {
		n += len(f.ref.bulk) + len(f.ref.tail)
	}
	return n
}

// Release returns the pooled buffer f owns, if any, to its pool; the
// frame's bytes must not be used afterwards. The reader of a pooled frame
// calls it once the request has been answered, the writer of a frame that
// carries a pooled payload once the frame has been written. It is a no-op
// for every other frame.
func (f *Frame) Release() {
	if f.ref == nil || f.ref.pooled == nil {
		return
	}
	f.ref.pooled.Free()
	f.ref, f.Body = nil, nil
}

// FrameWireSize reports the bytes f occupies on the wire (header + body),
// the unit coalescing writers budget their queues in.
func FrameWireSize(f *Frame) int { return headerSize + f.BodyLen() }

// AppendFrameHeader appends f's frame header alone to buf. A vectored
// writer follows it with the body's pieces; everything else wants
// AppendFrame.
func AppendFrameHeader(buf []byte, f *Frame) []byte {
	return appendHeader(buf, f.Kind, f.ReqID, f.Op, f.BodyLen())
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

// AppendFrame appends f's wire encoding (header + body) to buf and returns
// the extended slice, so a coalescing writer can stack several frames into
// one buffer and hand them to a single Write call.
func AppendFrame(buf []byte, f *Frame) ([]byte, error) {
	if f.BodyLen() > MaxFrameSize {
		return buf, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, f.BodyLen())
	}
	bulk, tail := f.Payload()
	buf = append(AppendFrameHeader(buf, f), f.Body...)
	return append(append(buf, bulk...), tail...), nil
}

// WriteFrame serializes f to w as one buffer: header and body are copied
// together and written with a single Write. No connection's data path uses
// it — transports write through their coalescing, vectored frame writer,
// which never copies a bulk body — it remains for tools and tests that
// want one frame on an io.Writer.
func WriteFrame(w io.Writer, f *Frame) error {
	buf, err := AppendFrame(make([]byte, 0, FrameWireSize(f)), f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one frame from r, validating magic, version and size.
// The body is freshly allocated and belongs to the caller.
func ReadFrame(r io.Reader) (*Frame, error) { return readFrame(r, false) }

// ReadFramePooled is ReadFrame for a server's request stream: the body of
// a bulk request frame (above BatchableBodyLimit) comes from the payload
// pool, and the caller must Release the frame once the request has been
// answered. Messages decoded from the body are views of it, so they die
// with it. One request is exempt and always gets a fresh body: a PeerPush
// deposit, which the receiving node parks in its rendezvous table for as
// long as it takes the matching AwaitPush to arrive.
func ReadFramePooled(r io.Reader) (*Frame, error) { return readFrame(r, true) }

func readFrame(r io.Reader, pool bool) (*Frame, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return nil, ErrBadMagic
	}
	if hdr[2] != Version {
		return nil, fmt.Errorf("%w: got %d want %d", ErrBadVersion, hdr[2], Version)
	}
	kind, op := FrameKind(hdr[3]), Op(binary.BigEndian.Uint16(hdr[12:14]))
	n := binary.BigEndian.Uint32(hdr[14:18])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	reqID := binary.BigEndian.Uint64(hdr[4:12])
	if n > maxUpfrontBody {
		body, err := readGrowing(r, int(n))
		if err != nil {
			return nil, err
		}
		return &Frame{Kind: kind, Op: op, ReqID: reqID, Body: body}, nil
	}
	var f *Frame
	if pool && n > BatchableBodyLimit && kind == FrameRequest && op != OpPeerPush {
		f = &Frame{ref: &payloadRef{pooled: GetBuf(int(n))}}
		f.Body = f.ref.pooled.B
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

// ReferenceFloor is the payload size from which NewFrame references a
// message's payload instead of copying it into the frame's body, and from
// which a sender's snapshot of one is worth taking from the payload pool:
// the largest body allocFrame stores inline. Below it body and Frame are
// one allocation and a reference would only add a second; from it on, a
// copied payload is an allocation of its own size that the reference saves.
const ReferenceFloor = 976

// allocFrame returns a zero Frame whose Body is empty with room for n
// bytes. A small body's storage comes with the Frame in one allocation —
// the two die together anyway, and a command pays for its frames at both
// ends of the wire in both directions; the inline sizes land the struct on
// the allocator's 64, 96, 192, 384 and 1024 byte classes. A larger body is
// allocated on its own, exactly n bytes.
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
	// least ReferenceFloor bytes (NewFrame's scratch): bulk is that payload,
	// split where in buf it belongs, and pooled the buffer it lives in, if
	// any.
	byRef  bool
	bulk   []byte
	split  int
	pooled *Buf
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
func (e *Encoder) Blob(b []byte) { e.PooledBlob(b, nil) }

// PooledBlob is Blob for a payload that may live in a pooled buffer (nil
// when it does not). When the payload ends up referenced rather than
// copied, ownership of pooled passes to the frame being built, whose
// writer frees it; when it is copied, pooled stays with the caller.
func (e *Encoder) PooledBlob(b []byte, pooled *Buf) {
	e.U32(uint32(len(b)))
	if e.byRef && e.bulk == nil && len(b) >= ReferenceFloor {
		e.bulk, e.split, e.pooled = b, len(e.buf), pooled
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
func (d *Decoder) Ints() []int64 {
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
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = d.I64()
	}
	return vs
}
