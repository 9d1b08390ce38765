package protocol

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/haocl-project/haocl/internal/recycle"
)

func TestEncodeDecodePrimitives(t *testing.T) {
	e := new(Encoder)
	e.U8(7)
	e.U32(1 << 30)
	e.U64(1 << 60)
	e.I64(-42)
	e.F64(3.25)
	e.Bool(true)
	e.Bool(false)
	e.Str("héllo")
	e.Blob([]byte{1, 2, 3})
	e.Ints([]int64{-1, 0, 9})

	d := NewDecoder(e.buf)
	if d.U8() != 7 || d.U32() != 1<<30 || d.U64() != 1<<60 || d.I64() != -42 {
		t.Fatal("integer round trip failed")
	}
	if d.F64() != 3.25 || !d.Bool() || d.Bool() {
		t.Fatal("float/bool round trip failed")
	}
	if d.Str() != "héllo" {
		t.Fatal("string round trip failed")
	}
	if !bytes.Equal(d.Blob(), []byte{1, 2, 3}) {
		t.Fatal("blob round trip failed")
	}
	ints := d.Ints()
	if len(ints) != 3 || ints[0] != -1 || ints[2] != 9 {
		t.Fatal("ints round trip failed")
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

// TestPrimitiveRoundTripProperty fuzzes the scalar codecs.
func TestPrimitiveRoundTripProperty(t *testing.T) {
	check := func(a uint32, b uint64, c int64, f float64, s string, blob []byte, vs []int64) bool {
		e := new(Encoder)
		e.U32(a)
		e.U64(b)
		e.I64(c)
		e.F64(f)
		e.Str(s)
		e.Blob(blob)
		e.Ints(vs)
		d := NewDecoder(e.buf)
		if d.U32() != a || d.U64() != b || d.I64() != c {
			return false
		}
		got := d.F64()
		if got != f && !(got != got && f != f) { // NaN-safe compare
			return false
		}
		if d.Str() != s || !bytes.Equal(d.Blob(), blob) {
			return false
		}
		dvs := d.Ints()
		if len(dvs) != len(vs) {
			return false
		}
		for i := range vs {
			if dvs[i] != vs[i] {
				return false
			}
		}
		return d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2}) // too short for a U32
	_ = d.U32()
	if d.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Every subsequent read must keep returning zero values, not panic.
	if d.U64() != 0 || d.Str() != "" || d.Blob() != nil || d.Ints() != nil {
		t.Fatal("sticky error not honored")
	}
	if !errors.Is(d.Err(), ErrShortMessage) {
		t.Fatalf("err = %v", d.Err())
	}
}

func TestDecoderHostileLengths(t *testing.T) {
	// A length prefix far past the buffer must fail cleanly.
	e := new(Encoder)
	e.U32(1 << 31)
	d := NewDecoder(e.buf)
	if got := d.Str(); got != "" || d.Err() == nil {
		t.Fatalf("hostile string length accepted: %q err=%v", got, d.Err())
	}
	d2 := NewDecoder(e.buf)
	if got := d2.Ints(); got != nil || d2.Err() == nil {
		t.Fatal("hostile ints length accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Frame{Kind: FrameRequest, ReqID: 99, Op: OpEnqueueKernel, Body: []byte("payload")}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.ReqID != in.ReqID || out.Op != in.Op || !bytes.Equal(out.Body, in.Body) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestFrameEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Kind: FrameResponse, ReqID: 1, Op: OpHello}); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Body) != 0 {
		t.Fatalf("expected empty body, got %d bytes", len(out.Body))
	}
}

func TestReadFrameBadMagic(t *testing.T) {
	raw := make([]byte, headerSize)
	raw[0], raw[1] = 0xDE, 0xAD
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

// TestReadFrameBadVersion: every frame carries Version, and a frame with
// any other version byte — the retired 2 to 4 included — is refused by
// both readers, plain and batch frames alike.
func TestReadFrameBadVersion(t *testing.T) {
	env, err := EncodeBatch([]*Frame{{Kind: FrameRequest, ReqID: 1, Op: OpFinishQueue}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Frame{{Kind: FrameRequest, Op: OpHello}, env} {
		raw, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		if raw[2] != Version {
			t.Fatalf("kind %d frame stamped version %d, want %d", f.Kind, raw[2], Version)
		}
		for _, v := range []byte{0, 1, 2, 3, 4, Version + 1, 99} {
			raw[2] = v
			if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadVersion) {
				t.Fatalf("kind %d, version %d: err = %v, want ErrBadVersion", f.Kind, v, err)
			}
			if _, err := ReadFramePooled(bytes.NewReader(raw)); !errors.Is(err, ErrBadVersion) {
				t.Fatalf("kind %d, version %d: pooled err = %v, want ErrBadVersion", f.Kind, v, err)
			}
		}
	}
}

func TestReadFrameOversized(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Kind: FrameRequest, Op: OpHello, Body: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt the length field to exceed the limit.
	raw[14], raw[15], raw[16], raw[17] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
}

// lyingHeader is a valid frame header claiming a body of n bytes.
func lyingHeader(kind FrameKind, op Op, n uint32) []byte {
	return appendHeader(nil, kind, 1, op, int(n))
}

// TestReadFrameLyingLengthAllocationBudget: a header that claims a 1 GiB
// body and is followed by end of stream makes either reader allocate less
// than twice maxUpfrontBody — not the gibibyte the header asked for — and
// fail with a truncation error.
func TestReadFrameLyingLengthAllocationBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		kind   FrameKind
		op     Op
		pooled bool
	}{
		{"request, pooled reader", FrameRequest, OpWriteBuffer, true},
		{"response, plain reader", FrameResponse, OpReadBuffer, false},
	} {
		wire := append(lyingHeader(c.kind, c.op, MaxFrameSize), "a few bytes"...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		if c.pooled {
			_, err = ReadFramePooled(bytes.NewReader(wire))
		} else {
			_, err = ReadFrame(bytes.NewReader(wire))
		}
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: err = %v, want unexpected EOF", c.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 2*maxUpfrontBody {
			t.Errorf("%s: a lying 1 GiB header allocated %d MiB, want under %d MiB",
				c.name, got>>20, 2*maxUpfrontBody>>20)
		}
	}
}

// patternReader yields the byte sequence i*7 mod 251 without storing it.
type patternReader struct{ off int }

func (p *patternReader) Read(b []byte) (int, error) {
	for i := range b {
		b[i] = byte((p.off + i) * 7 % 251)
	}
	p.off += len(b)
	return len(b), nil
}

// TestReadFrameGrowsLongBody: a body longer than maxUpfrontBody, which
// the reader grows as it arrives, is read in full and intact.
func TestReadFrameGrowsLongBody(t *testing.T) {
	if testing.Short() || recycle.Race {
		t.Skip("reads a body of over 64 MiB into up to twice that")
	}
	const n = maxUpfrontBody + 4096
	r := io.MultiReader(bytes.NewReader(lyingHeader(FrameRequest, OpWriteBuffer, n)),
		io.LimitReader(&patternReader{}, n))
	f, err := ReadFramePooled(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Body) != n || f.Kind != FrameRequest || f.Op != OpWriteBuffer || f.ReqID != 1 {
		t.Fatalf("frame kind %d op %d req %d with a %d-byte body, want a %d-byte write request",
			f.Kind, f.Op, f.ReqID, len(f.Body), n)
	}
	for i, b := range f.Body {
		if b != byte(i*7%251) {
			t.Fatalf("body byte %d = %d, want %d", i, b, byte(i*7%251))
		}
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Kind: FrameRequest, Op: OpHello, Body: make([]byte, 64)}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:headerSize+10]
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
}

func TestWriteFrameRejectsOversized(t *testing.T) {
	f := &Frame{Kind: FrameRequest, Op: OpHello}
	f.Body = make([]byte, 1) // placeholder; fake the length check via slice header
	huge := Frame{Kind: FrameRequest, Op: OpHello, Body: make([]byte, 0)}
	_ = huge
	// Construct a frame body just over the limit without allocating 1 GiB:
	// not feasible directly, so verify the guard with a manufactured slice
	// header is skipped and instead trust MaxFrameSize coverage in
	// ReadFrame; here we check the happy path boundary (empty body).
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
}

// TestBlobIsView pins decode-in-place: a decoded blob aliases the body.
func TestBlobIsView(t *testing.T) {
	e := new(Encoder)
	e.Blob([]byte{9, 8, 7})
	body := e.buf
	v := NewDecoder(body).Blob()
	if len(v) != 3 || v[0] != 9 {
		t.Fatalf("Blob = %v", v)
	}
	body[4] = 42
	if v[0] != 42 {
		t.Fatal("Blob copied its bytes instead of viewing the body")
	}
}
