package transport

import (
	"runtime"
	"testing"

	"github.com/haocl-project/haocl/internal/protocol"
)

// BenchmarkCallRoundTripTCP measures one control-message round trip over
// loopback TCP — the wall-clock floor of every forwarded OpenCL API call.
func BenchmarkCallRoundTripTCP(b *testing.B) {
	srv := NewStaticServer(HandlerFunc(func(op protocol.Op, body []byte) (protocol.Message, error) {
		return &protocol.EmptyResp{}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	req := &protocol.FinishQueueReq{QueueID: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Call(req, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkWriteThroughput measures moving 1 MiB payloads through the
// framing layer over the in-memory transport, and reports the bytes both
// ends allocate per payload byte (B/B): the payload is referenced by the
// client and lands in a pooled body on the server, so a warm pool moves it
// without allocating for it at all.
func BenchmarkBulkWriteThroughput(b *testing.B) {
	net := NewMemNetwork()
	srv := NewStaticServer(HandlerFunc(func(op protocol.Op, body []byte) (protocol.Message, error) {
		return &protocol.EmptyResp{}, nil
	}))
	if err := net.Register("mem://bench", srv); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := net.Dial("mem://bench")
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	payload := make([]byte, 1<<20)
	req := &protocol.WriteBufferReq{QueueID: 1, BufferID: 1, Data: payload}
	b.SetBytes(1 << 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Call(req, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/(float64(b.N)*(1<<20)), "B/B")
}
