package protocol

import (
	"fmt"
	"sync"
)

// codec walks a message's fields in wire order, and is what makes each
// message state its layout once: a message's fields method calls one codec
// method per field (c.U64(&m.QueueID); c.Blob(&m.Data); ...), and the same
// walk encodes the fields into the Encoder or, when decoding is set,
// decodes them from the Decoder. A wire change is therefore an edit to one
// fields method, a Version bump and a regenerated golden corpus
// (TestGoldenCorpus).
type codec struct {
	Encoder
	Decoder
	decoding bool
}

// walk encodes *v with enc or overwrites it with what dec decodes.
func walk[T any](c *codec, v *T, enc func(*Encoder, T), dec func(*Decoder) T) {
	if c.decoding {
		*v = dec(&c.Decoder)
	} else {
		enc(&c.Encoder, *v)
	}
}

// The codec's primitives mirror the Encoder's and Decoder's. A one-byte
// enum walks as U8 through a pointer conversion.
func (c *codec) U8(v *uint8)     { walk(c, v, (*Encoder).U8, (*Decoder).U8) }
func (c *codec) U32(v *uint32)   { walk(c, v, (*Encoder).U32, (*Decoder).U32) }
func (c *codec) U64(v *uint64)   { walk(c, v, (*Encoder).U64, (*Decoder).U64) }
func (c *codec) I64(v *int64)    { walk(c, v, (*Encoder).I64, (*Decoder).I64) }
func (c *codec) F64(v *float64)  { walk(c, v, (*Encoder).F64, (*Decoder).F64) }
func (c *codec) Bool(v *bool)    { walk(c, v, (*Encoder).Bool, (*Decoder).Bool) }
func (c *codec) Str(v *string)   { walk(c, v, (*Encoder).Str, (*Decoder).Str) }
func (c *codec) Blob(v *[]byte)  { walk(c, v, (*Encoder).Blob, (*Decoder).Blob) }
func (c *codec) Ints(v *[]int64) { walk(c, v, (*Encoder).Ints, (*Decoder).Ints) }

// PooledBlob walks a payload that may live in a pooled buffer; see
// Encoder.PooledBlob. pooled never travels, so a decoder leaves it alone.
func (c *codec) PooledBlob(v *[]byte, pooled *Buf) {
	if c.decoding {
		*v = c.Decoder.Blob()
	} else {
		c.Encoder.PooledBlob(*v, pooled)
	}
}

// listOf describes the elements of a counted list: how to walk one, and
// min, the size of its smallest encoding.
type listOf[T any] struct {
	elem func(*T, *codec)
	min  int
}

// newList measures elem's smallest encoding, which is that of T's zero
// value. The lists below call it once, at package init: measuring on each
// decode would allocate.
func newList[T any](elem func(*T, *codec)) listOf[T] {
	var zero T
	var c codec
	elem(&zero, &c)
	return listOf[T]{elem: elem, min: len(c.Encoder.buf)}
}

// The element kinds of the counted lists.
var (
	peerList   = newList((*PeerAddr).fields)
	deviceList = newList((*DeviceInfo).fields)
	statusList = newList((*DeviceStatus).fields)
	argList    = newList((*KernelArg).fields)
	nameList   = newList(func(s *string, c *codec) { c.Str(s) })
	idList     = newList(func(id *uint64, c *codec) { c.U64(id) })
)

// list walks a counted list: a uint32 count, then each element. A decoder
// allocates for a count only once the body still holds count × l.min
// bytes, so a lying count costs no more memory than the frame that carries
// it. An empty list decodes to nil.
func list[T any](c *codec, s *[]T, l listOf[T]) {
	n := uint32(len(*s))
	c.U32(&n)
	if c.decoding {
		*s = nil
		if n > 0 && c.Need(int(n)*l.min) {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		l.elem(&(*s)[i], c)
	}
}

// codecs holds the scratch codecs of NewFrame and DecodeMessage. A codec is
// handed to a Message's fields method through an interface, which would
// otherwise force one heap allocation per call; each is taken and put back
// inside the one function that uses it.
var codecs = sync.Pool{New: func() any { return new(codec) }}

// maxScratch is the largest scratch buffer a pooled codec keeps: any body
// that rides in a Batch envelope fits.
const maxScratch = 2 * BatchableBodyLimit

// EncodeMessage marshals m into a fresh body slice, copying any payload.
func EncodeMessage(m Message) []byte {
	c := &codec{Encoder: Encoder{buf: make([]byte, 0, 64)}}
	m.fields(c)
	return c.Encoder.buf
}

// NewFrame builds the frame that carries m (nil for an empty body) and is
// how transports encode what they send. Its wire bytes are exactly those
// of a frame whose Body is EncodeMessage(m), but a payload — the message's
// first blob of at least ReferenceFloor bytes — is referenced by the frame
// (see Frame.Payload) instead of copied into its Body: the writer copies it
// once, into its staging buffer, or not at all when the frame is too big
// for an envelope and travels alone. The payload must therefore stay
// unmodified until the frame has been written; a sender that cannot promise
// that passes a private copy.
//
// The message is marshalled into a pooled scratch codec and copied out
// into a frame sized to it, so a small frame is one allocation, body
// included (allocFrame). The scratch never leaves this function.
func NewFrame(kind FrameKind, reqID uint64, op Op, m Message) *Frame {
	if m == nil {
		return &Frame{Kind: kind, ReqID: reqID, Op: op}
	}
	c := codecs.Get().(*codec)
	e := &c.Encoder
	e.byRef = true
	m.fields(c)
	f := allocFrame(len(e.buf))
	f.Kind, f.ReqID, f.Op = kind, reqID, op
	f.Body = append(f.Body, e.buf...)
	if e.bulk != nil {
		// Body is what precedes the payload; the rest follows it.
		f.ref = &payloadRef{bulk: e.bulk, tail: f.Body[e.split:], pooled: e.pooled}
		f.Body = f.Body[:e.split:e.split]
	}
	if cap(e.buf) > maxScratch {
		e.buf = nil // one oversized message must not pin its size in the pool
	}
	*e = Encoder{buf: e.buf[:0]}
	codecs.Put(c)
	return f
}

// DecodeMessage unmarshals body into m, reporting truncation errors.
func DecodeMessage(m Message, body []byte) error {
	c := codecs.Get().(*codec)
	c.decoding, c.Decoder = true, Decoder{buf: body}
	m.fields(c)
	err := c.err
	c.decoding, c.Decoder = false, Decoder{} // the pool must not keep the body reachable
	codecs.Put(c)
	if err != nil {
		return fmt.Errorf("decode %T: %w", m, err)
	}
	return nil
}
