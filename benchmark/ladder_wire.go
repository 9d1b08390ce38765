package main

import (
	"bytes"
	"fmt"
	"io"

	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/node"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/transport"
)

// smallWrite is cmd-stream's commonest command: a 256 B write chained on
// its predecessor.
func smallWrite() *protocol.WriteBufferReq {
	return &protocol.WriteBufferReq{
		QueueID: 3, BufferID: 7, Data: make([]byte, 256), SimArrival: 123456789,
		EventID: 42, ModelBytes: 256, WaitEvents: []int64{41},
	}
}

// tileLaunch is cmd-stream's other command: an 8×8 matmul launch with its
// six arguments and a modelled cost.
func tileLaunch() *protocol.EnqueueKernelReq {
	scalar := func(v byte) protocol.KernelArg {
		return protocol.KernelArg{Kind: protocol.ArgScalar, Scalar: []byte{v, 0, 0, 0}}
	}
	return &protocol.EnqueueKernelReq{
		QueueID: 3, KernelID: 9, Global: []int64{8, 8}, Local: []int64{8, 8},
		Args: []protocol.KernelArg{
			{Kind: protocol.ArgBuffer, BufferID: 7}, {Kind: protocol.ArgBuffer, BufferID: 8}, {Kind: protocol.ArgBuffer, BufferID: 9},
			scalar(8), scalar(8), scalar(8),
		},
		SimArrival: 123456789, EventID: 43, WaitEvents: []int64{42}, CostFlops: 2e9, CostBytes: 8e9,
	}
}

func protocolRungs(l *ladder) error {
	var sink []byte
	var decodeErr error

	small := smallWrite()
	smallBody := protocol.EncodeMessage(small)
	c := l.rung(20000, func() {
		for i := 0; i < 20000; i++ {
			sink = protocol.EncodeMessage(small)
		}
	})
	l.m.set("protocol.encode_small_ns", "ns", c.ns)
	l.m.set("protocol.encode_small_allocs", "1", c.allocs)
	c = l.rung(20000, func() {
		for i := 0; i < 20000; i++ {
			if err := protocol.DecodeMessage(new(protocol.WriteBufferReq), smallBody); err != nil {
				decodeErr = err
			}
		}
	})
	l.m.set("protocol.decode_small_ns", "ns", c.ns)
	l.m.set("protocol.decode_small_allocs", "1", c.allocs)

	launch := tileLaunch()
	launchBody := protocol.EncodeMessage(launch)
	l.m.set("protocol.encode_kernel_ns", "ns", l.rung(20000, func() {
		for i := 0; i < 20000; i++ {
			sink = protocol.EncodeMessage(launch)
		}
	}).ns)
	l.m.set("protocol.decode_kernel_ns", "ns", l.rung(20000, func() {
		for i := 0; i < 20000; i++ {
			if err := protocol.DecodeMessage(new(protocol.EnqueueKernelReq), launchBody); err != nil {
				decodeErr = err
			}
		}
	}).ns)

	// A full envelope: 64 small request frames.
	const perBatch = 64
	frames := make([]*protocol.Frame, perBatch)
	for i := range frames {
		frames[i] = &protocol.Frame{Kind: protocol.FrameRequest, ReqID: uint64(i + 1), Op: protocol.OpWriteBuffer, Body: smallBody}
	}
	env, err := protocol.EncodeBatch(frames)
	if err != nil {
		return fmt.Errorf("ladder: encode batch: %w", err)
	}
	enc := l.rung(400*perBatch, func() {
		for i := 0; i < 400; i++ {
			if _, err := protocol.EncodeBatch(frames); err != nil {
				decodeErr = err
			}
		}
	})
	dec := l.rung(400*perBatch, func() {
		for i := 0; i < 400; i++ {
			if _, err := protocol.DecodeBatch(env); err != nil {
				decodeErr = err
			}
		}
	})
	l.m.set("protocol.batch_encode_ns_per_frame", "ns", enc.ns)
	l.m.set("protocol.batch_decode_ns_per_frame", "ns", dec.ns)
	l.m.set("protocol.batch_allocs_per_frame", "1", enc.allocs+dec.allocs)

	// ReadFrame over a stream of small frames, as a connection's reader sees them.
	var stream []byte
	for i := 0; i < 1000; i++ {
		if stream, err = protocol.AppendFrame(stream, frames[i%perBatch]); err != nil {
			return fmt.Errorf("ladder: append frame: %w", err)
		}
	}
	l.m.set("protocol.frame_read_small_ns", "ns", l.rung(10000, func() {
		for rep := 0; rep < 10; rep++ {
			r := bytes.NewReader(stream)
			for i := 0; i < 1000; i++ {
				if _, err := protocol.ReadFrame(r); err != nil {
					decodeErr = err
				}
			}
		}
	}).ns)

	// Bulk: what a 1 MiB payload costs at each step, in bytes allocated per
	// payload byte and in MiB/s.
	bulk := &protocol.WriteBufferReq{QueueID: 3, BufferID: 7, Data: make([]byte, mib), EventID: 42}
	bulkBody := protocol.EncodeMessage(bulk)
	c = l.rung(64, func() {
		for i := 0; i < 64; i++ {
			sink = protocol.EncodeMessage(bulk)
		}
	})
	l.m.set("protocol.encode_bulk_b_per_b", "B/B", c.bytes/mib)
	l.m.set("protocol.encode_bulk_mb_per_s", "MB/s", mbPerS(c.ns))
	c = l.rung(64, func() {
		for i := 0; i < 64; i++ {
			if err := protocol.DecodeMessage(new(protocol.WriteBufferReq), bulkBody); err != nil {
				decodeErr = err
			}
		}
	})
	l.m.set("protocol.decode_bulk_b_per_b", "B/B", c.bytes/mib)
	l.m.set("protocol.decode_bulk_mb_per_s", "MB/s", mbPerS(c.ns))

	// WriteFrame is the copying frame write: the unbatched client path and
	// every plain server response (a bulk read's reply) go through it.
	bulkFrame := &protocol.Frame{Kind: protocol.FrameRequest, ReqID: 1, Op: protocol.OpWriteBuffer, Body: bulkBody}
	l.m.set("protocol.frame_write_bulk_b_per_b", "B/B", l.rung(64, func() {
		for i := 0; i < 64; i++ {
			if err := protocol.WriteFrame(io.Discard, bulkFrame); err != nil {
				decodeErr = err
			}
		}
	}).bytes/mib)
	wire, err := protocol.AppendFrame(nil, bulkFrame)
	if err != nil {
		return fmt.Errorf("ladder: append frame: %w", err)
	}
	l.m.set("protocol.frame_read_bulk_b_per_b", "B/B", l.rung(64, func() {
		for i := 0; i < 64; i++ {
			if _, err := protocol.ReadFrame(bytes.NewReader(wire)); err != nil {
				decodeErr = err
			}
		}
	}).bytes/mib)

	_ = sink
	if decodeErr != nil {
		return fmt.Errorf("ladder: protocol: %w", decodeErr)
	}
	return nil
}

// echoServer answers every request with an empty response: the transport
// alone, with no node behind it.
func echoServer() *transport.Server {
	return transport.NewStaticServer(transport.HandlerFunc(func(protocol.Op, []byte) (protocol.Message, error) {
		return &protocol.EmptyResp{}, nil
	}))
}

func transportRungs(l *ladder) error {
	var callErr error
	note := func(err error) {
		if err != nil && callErr == nil {
			callErr = err
		}
	}

	srv := echoServer()
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	tcp, err := transport.Dial(addr)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	defer tcp.Close()
	ping := &protocol.FinishQueueReq{QueueID: 1}
	c := l.rung(2000, func() {
		for i := 0; i < 2000; i++ {
			note(tcp.Call(ping, nil))
		}
	})
	l.m.set("transport.call_tcp_ns", "ns", c.ns)
	l.m.set("transport.call_tcp_allocs", "1", c.allocs)

	net := transport.NewMemNetwork()
	memSrv := echoServer()
	defer memSrv.Close()
	if err := net.Register("mem://ladder", memSrv); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	mem, err := net.Dial("mem://ladder")
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	defer mem.Close()
	l.m.set("transport.call_mem_ns", "ns", l.rung(2000, func() {
		for i := 0; i < 2000; i++ {
			note(mem.Call(ping, nil))
		}
	}).ns)

	// The production path from here on: batching negotiated, frames queued
	// to the coalescing writer.
	tcp.EnableBatching()
	small := smallWrite()
	const burst = 64
	pend := make([]*transport.Pending, burst)
	c = l.rung(300*burst, func() {
		for i := 0; i < 300; i++ {
			for j := range pend {
				pend[j] = tcp.Go(small, nil)
			}
			for _, p := range pend {
				note(p.Wait())
			}
		}
	})
	l.m.set("transport.pipelined_ns_per_msg", "ns", c.ns)
	l.m.set("transport.pipelined_allocs_per_msg", "1", c.allocs)

	bulk := &protocol.WriteBufferReq{QueueID: 3, BufferID: 7, Data: make([]byte, mib), EventID: 42}
	c = l.rung(64, func() {
		for i := 0; i < 64; i++ {
			note(tcp.Call(bulk, nil))
		}
	})
	l.m.set("transport.bulk_tcp_mb_per_s", "MB/s", mbPerS(c.ns))
	l.m.set("transport.bulk_b_per_b", "B/B", c.bytes/mib)

	// Dial, Hello, close against a real node: what every cluster start and
	// every paper-figs cell pays per node.
	icd := device.NewICD()
	sim.RegisterDrivers(icd, benchRegistry())
	n, err := node.New(node.Options{
		Name: "ladder", ICD: icd, ExecWorkers: 1, Dialer: transport.TCPDialer{},
		Devices: []device.Config{{Driver: sim.DriverGPU, ID: 1, Shared: true}},
	})
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	nodeSrv := n.Serve()
	defer nodeSrv.Close()
	nodeAddr, err := nodeSrv.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	l.m.set("transport.handshake_ns", "ns", l.rung(200, func() {
		for i := 0; i < 200; i++ {
			cl, err := transport.Dial(nodeAddr)
			if err != nil {
				note(err)
				continue
			}
			_, err = transport.Handshake(cl, protocol.HelloReq{UserID: "ladder", ClientName: "ladder"})
			note(err)
			note(cl.Close())
		}
	}).ns)

	if callErr != nil {
		return fmt.Errorf("ladder: transport: %w", callErr)
	}
	return nil
}
