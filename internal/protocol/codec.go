package protocol

import (
	"fmt"

	"github.com/haocl-project/haocl/internal/recycle"
)

// codec walks a message's fields in wire order, and is what makes each
// message state its layout once: a message's fields method calls one codec
// method per field (c.U64(&m.QueueID); c.Blob(&m.Data); ...), and the same
// walk encodes the fields into the Encoder, decodes them from the Decoder,
// or only counts the bytes their encoding takes, depending on mode. A wire
// change is therefore an edit to one fields method, a Version bump and a
// regenerated golden corpus (TestGoldenCorpus).
type codec struct {
	Encoder
	Decoder
	mode codecMode
	size int // sizing: the encoded bytes walked so far
}

// codecMode is what a walk does with each field.
type codecMode uint8

const (
	encoding codecMode = iota
	decoding
	sizing // count the bytes, write none (MessageSize)
)

// walk encodes *v with enc, overwrites it with what dec decodes, or counts
// n, the length of its encoding.
func walk[T any](c *codec, v *T, n int, enc func(*Encoder, T), dec func(*Decoder) T) {
	switch c.mode {
	case encoding:
		enc(&c.Encoder, *v)
	case decoding:
		*v = dec(&c.Decoder)
	default:
		c.size += n
	}
}

// The codec's primitives mirror the Encoder's and Decoder's. A one-byte
// enum walks as U8 through a pointer conversion.
func (c *codec) U8(v *uint8)    { walk(c, v, 1, (*Encoder).U8, (*Decoder).U8) }
func (c *codec) U32(v *uint32)  { walk(c, v, 4, (*Encoder).U32, (*Decoder).U32) }
func (c *codec) U64(v *uint64)  { walk(c, v, 8, (*Encoder).U64, (*Decoder).U64) }
func (c *codec) I64(v *int64)   { walk(c, v, 8, (*Encoder).I64, (*Decoder).I64) }
func (c *codec) F64(v *float64) { walk(c, v, 8, (*Encoder).F64, (*Decoder).F64) }
func (c *codec) Bool(v *bool)   { walk(c, v, 1, (*Encoder).Bool, (*Decoder).Bool) }
func (c *codec) Str(v *string)  { walk(c, v, 4+len(*v), (*Encoder).Str, (*Decoder).Str) }
func (c *codec) Blob(v *[]byte) { walk(c, v, 4+len(*v), (*Encoder).Blob, (*Decoder).Blob) }

// Ints decodes into the capacity *v already has when it holds the count,
// as list does: the node presets its commands' wait IDs and NDRange.
func (c *codec) Ints(v *[]int64) {
	if c.mode == decoding {
		*v = c.Decoder.intsInto(*v)
		return
	}
	walk(c, v, 4+8*len(*v), (*Encoder).Ints, (*Decoder).Ints)
}

// listOf describes the elements of a counted list: how to walk one, and
// min, the size of its smallest encoding.
type listOf[T any] struct {
	elem func(*T, *codec)
	min  int
}

// newList measures elem's smallest encoding, which is that of T's zero
// value. The lists below call it once, at package init: measuring on each
// decode would cost a walk per list.
func newList[T any](elem func(*T, *codec)) listOf[T] {
	var zero T
	c := codec{mode: sizing}
	elem(&zero, &c)
	return listOf[T]{elem: elem, min: c.size}
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
// it. An empty list decodes to nil. A destination whose capacity holds the
// count is decoded into, not replaced, so a receiver that presets storage
// decodes without allocating; a fresh message (nil, no capacity) behaves
// as if there were no such rule.
func list[T any](c *codec, s *[]T, l listOf[T]) {
	n := uint32(len(*s))
	c.U32(&n)
	if c.mode == decoding {
		dst := (*s)[:0]
		*s = nil
		if n > 0 && c.Need(int(n)*l.min) {
			if cap(dst) >= int(n) {
				*s = dst[:n]
				clear(*s)
			} else {
				*s = make([]T, n)
			}
		}
	}
	for i := range *s {
		l.elem(&(*s)[i], c)
	}
}

// codecs pools the codecs the entry points below walk messages with. A
// codec is handed to a Message's fields method through an interface, which
// would otherwise force one heap allocation per call; each is taken and put
// back inside the one function that uses it, and goes back holding no
// buffer, body or payload.
var codecs recycle.Pool[codec]

// encode walks m's fields onto the end of buf and returns the encoder it
// used: e.buf is the extended slice. With byRef the first payload of at least
// ReferenceFloor bytes is referenced instead of copied (e.bulk, e.split).
// A nil m encodes to nothing.
func encode(buf []byte, m Message, byRef bool) Encoder {
	if m == nil {
		return Encoder{buf: buf}
	}
	c := codecs.Get()
	c.Encoder = Encoder{buf: buf, byRef: byRef}
	m.fields(c)
	e := c.Encoder
	c.Encoder = Encoder{}
	codecs.Put(c)
	return e
}

// MessageSize reports the length of m's encoded body (0 for nil) with a
// sizing walk, which writes nothing: what a writer budgets and routes a
// message by before it encodes it.
func MessageSize(m Message) int {
	if m == nil {
		return 0
	}
	c := codecs.Get()
	c.mode, c.size = sizing, 0
	m.fields(c)
	n := c.size
	c.mode = encoding
	codecs.Put(c)
	return n
}

// EncodeMessage marshals m into a fresh body slice of exactly its size,
// copying any payload; it never frees a borrowed payload (Outgoing).
// Connections do not use it — their writers encode each message
// straight into the buffer that goes to the wire (Outgoing) — it remains
// for tools and tests that want a body on its own.
func EncodeMessage(m Message) []byte {
	return encode(make([]byte, 0, MessageSize(m)), m, false).buf
}

// DecodeMessage unmarshals body into m, reporting truncation errors.
func DecodeMessage(m Message, body []byte) error {
	c := codecs.Get()
	c.mode, c.Decoder = decoding, Decoder{buf: body}
	m.fields(c)
	err := c.err
	c.mode, c.Decoder = encoding, Decoder{} // the pool must not keep the body reachable
	codecs.Put(c)
	if err != nil {
		return fmt.Errorf("decode %T: %w", m, err)
	}
	return nil
}
