package main

import (
	"fmt"
	"time"

	"github.com/haocl-project/haocl/internal/apps/matmul"
	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/node"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/transport"
)

// nodeDriver drives one node session directly, with no transport: a
// request is handed to HandleCallAsync and the caller waits for done, the
// interval from a request's arrival to its response being ready.
type nodeDriver struct {
	h    transport.AsyncHandler
	done chan error
	err  error
}

func (d *nodeDriver) call(req protocol.Message, resp protocol.Message) {
	d.h.HandleCallAsync(req.Op(), protocol.EncodeMessage(req), func(m protocol.Message, err error) {
		if err == nil && resp != nil {
			err = protocol.DecodeMessage(resp, protocol.EncodeMessage(m))
		}
		d.done <- err
	})
	if err := <-d.done; err != nil && d.err == nil {
		d.err = fmt.Errorf("%s: %w", req.Op(), err)
	}
}

// raw is call with the body encoded beforehand and the response dropped.
func (d *nodeDriver) raw(op protocol.Op, body []byte) {
	d.h.HandleCallAsync(op, body, func(_ protocol.Message, err error) { d.done <- err })
	if err := <-d.done; err != nil && d.err == nil {
		d.err = fmt.Errorf("%s: %w", op, err)
	}
}

func nodeRungs(l *ladder) error {
	icd := device.NewICD()
	sim.RegisterDrivers(icd, benchRegistry())
	n, err := node.New(node.Options{
		Name: "ladder", ICD: icd, ExecWorkers: 1,
		Devices: []device.Config{{Driver: sim.DriverGPU, ID: 1, Shared: true}},
	})
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	sess := n.NewSession()
	if c, ok := sess.(interface{ Close() error }); ok {
		defer c.Close()
	}
	d := &nodeDriver{h: sess.(transport.AsyncHandler), done: make(chan error, 1)}

	var ctx, q, small, big, k protocol.ObjectResp
	var prog protocol.BuildProgramResp
	var tiles [3]protocol.ObjectResp
	d.call(&protocol.HelloReq{UserID: "ladder", WireVersion: protocol.Version}, &protocol.HelloResp{})
	d.call(&protocol.CreateContextReq{DeviceIDs: []int64{1}}, &ctx)
	d.call(&protocol.CreateQueueReq{ContextID: ctx.ID, DeviceID: 1, Profiling: true}, &q)
	d.call(&protocol.BuildProgramReq{ContextID: ctx.ID, Source: matmul.Source}, &prog)
	d.call(&protocol.CreateKernelReq{ProgramID: prog.ProgramID, Name: "matmul"}, &k)
	d.call(&protocol.CreateBufferReq{ContextID: ctx.ID, Size: 256}, &small)
	d.call(&protocol.CreateBufferReq{ContextID: ctx.ID, Size: mib}, &big)
	for i := range tiles {
		d.call(&protocol.CreateBufferReq{ContextID: ctx.ID, Size: 256}, &tiles[i])
	}
	if d.err != nil {
		return fmt.Errorf("ladder: node set-up: %w", d.err)
	}

	// Event IDs are left zero: the node assigns them, as for any direct driver.
	write := protocol.EncodeMessage(&protocol.WriteBufferReq{QueueID: q.ID, BufferID: small.ID, Data: make([]byte, 256)})
	c := l.rung(5000, func() {
		for i := 0; i < 5000; i++ {
			d.raw(protocol.OpWriteBuffer, write)
		}
	})
	l.m.set("node.write_small_ns", "ns", c.ns)
	l.m.set("node.write_small_allocs", "1", c.allocs)

	launch := tileLaunch()
	launch.QueueID, launch.KernelID, launch.EventID, launch.WaitEvents = q.ID, k.ID, 0, nil
	for i := range tiles {
		launch.Args[i].BufferID = tiles[i].ID
	}
	launchBody := protocol.EncodeMessage(launch)
	c = l.rung(5000, func() {
		for i := 0; i < 5000; i++ {
			d.raw(protocol.OpEnqueueKernel, launchBody)
		}
	})
	l.m.set("node.kernel_tile_ns", "ns", c.ns)
	l.m.set("node.kernel_tile_allocs", "1", c.allocs)

	bulkWrite := protocol.EncodeMessage(&protocol.WriteBufferReq{QueueID: q.ID, BufferID: big.ID, Data: make([]byte, mib)})
	c = l.rung(64, func() {
		for i := 0; i < 64; i++ {
			d.raw(protocol.OpWriteBuffer, bulkWrite)
		}
	})
	l.m.set("node.write_bulk_mb_per_s", "MB/s", mbPerS(c.ns))
	l.m.set("node.write_bulk_b_per_b", "B/B", c.bytes/mib)
	bulkRead := protocol.EncodeMessage(&protocol.ReadBufferReq{QueueID: q.ID, BufferID: big.ID, Size: mib})
	c = l.rung(64, func() {
		for i := 0; i < 64; i++ {
			d.raw(protocol.OpReadBuffer, bulkRead)
		}
	})
	l.m.set("node.read_bulk_mb_per_s", "MB/s", mbPerS(c.ns))
	l.m.set("node.read_bulk_b_per_b", "B/B", c.bytes/mib)

	create := &protocol.CreateBufferReq{ContextID: ctx.ID, Size: 4096}
	l.m.set("node.create_release_ns", "ns", l.rung(2000, func() {
		for i := 0; i < 2000; i++ {
			var b protocol.ObjectResp
			d.call(create, &b)
			d.call(&protocol.ReleaseReq{Kind: protocol.ObjBuffer, ID: b.ID}, nil)
		}
	}).ns)

	if d.err != nil {
		return fmt.Errorf("ladder: node: %w", d.err)
	}
	return nil
}

// coreRungs time the host runtime's entry points against real nodes on
// loopback TCP. Allocation counts are process-wide, so they include what
// the in-process node allocates to serve the command: the host's own
// share is the difference to node.write_small_allocs and
// transport.pipelined_allocs_per_msg.
func coreRungs(l *ladder) error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	tc, err := startCluster("ladder", 2, 1, true, nil)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	defer tc.close()
	rt := tc.rt
	devs := rt.Devices(protocol.DeviceGPU)
	sess := rt.OpenSession("ladder")
	ctx, err := sess.CreateContext(devs)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	q0, err := ctx.CreateQueue(devs[0])
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	q1, err := ctx.CreateQueue(devs[1])
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	prog, err := ctx.CreateProgram(matmul.Source)
	if err == nil {
		err = prog.Build()
	}
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	k, err := prog.CreateKernel("matmul")
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	var bufs [5]*core.Buffer
	for i := range bufs {
		size := int64(256)
		if i >= 3 {
			size = 4096
		}
		if bufs[i], err = ctx.CreateBuffer(size); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	for i, v := range []any{bufs[0], bufs[1], bufs[2], int32(8), int32(8), int32(8)} {
		note(k.SetArg(i, v))
	}
	payload := make([]byte, 256)

	// The loop alone is timed, as a caller experiences enqueue; the
	// allocations are counted through Finish, so the node's share of every
	// command has landed.
	const n = 5000
	var enqueueNS []float64
	enqueue := func(op func() error) func() {
		return func() {
			start := time.Now()
			for i := 0; i < n; i++ {
				note(op())
			}
			enqueueNS = append(enqueueNS, float64(time.Since(start).Nanoseconds())/n)
			_, err := q0.Finish()
			note(err)
		}
	}
	writeOp := func() error { _, err := q0.EnqueueWrite(bufs[0], 0, payload); return err }
	c := l.rung(n, enqueue(writeOp))
	l.m.set("core.enqueue_write_ns", "ns", median(enqueueNS[1:])*c.speed)
	l.m.set("core.enqueue_write_allocs", "1", c.allocs)

	enqueueNS = nil
	rt.SetTracer(trace.New())
	c = l.rung(n, enqueue(writeOp))
	rt.SetTracer(nil)
	l.m.set("core.enqueue_write_traced_ns", "ns", median(enqueueNS[1:])*c.speed)

	enqueueNS = nil
	dims := []int{8, 8}
	c = l.rung(n, enqueue(func() error { _, err := q0.EnqueueKernel(k, dims, dims, nil, nil); return err }))
	l.m.set("core.enqueue_kernel_ns", "ns", median(enqueueNS[1:])*c.speed)
	l.m.set("core.enqueue_kernel_allocs", "1", c.allocs)

	// A copy enqueued on node 1 of a buffer just written on node 0: the
	// call plans and issues the PushRange/AwaitPush pair and the copy.
	page := make([]byte, 4096)
	var copyNS []float64
	c = l.rung(500, func() {
		var in time.Duration
		for i := 0; i < 500; i++ {
			_, err := q0.EnqueueWrite(bufs[3], 0, page)
			note(err)
			start := time.Now()
			_, err = q1.EnqueueCopy(bufs[3], bufs[4], 0, 0, 4096)
			in += time.Since(start)
			note(err)
		}
		copyNS = append(copyNS, float64(in.Nanoseconds())/500)
		_, err := q1.Finish()
		note(err)
	})
	l.m.set("core.enqueue_copy_p2p_ns", "ns", median(copyNS[1:])*c.speed)

	l.m.set("core.session_cycle_ns", "ns", l.rung(500, func() {
		for i := 0; i < 500; i++ {
			s := rt.OpenSession("cycle")
			c, err := s.CreateContext(devs[:1])
			if err != nil {
				note(err)
				continue
			}
			q, err := c.CreateQueue(devs[0])
			if err == nil {
				err = q.Release()
			}
			note(err)
			note(s.Close())
		}
	}).ns)

	l.m.set("core.build_ns", "ns", l.rung(500, func() {
		for i := 0; i < 500; i++ {
			p, err := ctx.CreateProgram(matmul.Source)
			if err == nil {
				err = p.Build()
			}
			note(err)
		}
	}).ns)

	note(sess.Close())
	if firstErr != nil {
		return fmt.Errorf("ladder: core: %w", firstErr)
	}
	return nil
}
