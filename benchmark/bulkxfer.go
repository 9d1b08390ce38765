package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/protocol"
)

// bulk-xfer: one client moves 16 MiB through two loopback-TCP GPU nodes
// three ways per round: 16 × 1 MiB writes to node 0, one copy enqueued on
// node 1 (which forces a 16 MiB node→node PushRange migration of the
// source), and 16 × 1 MiB reads from node 1. Payload copies and
// allocations in core (shadow, command log), protocol (Blob), transport
// (frame write and read) and node dominate; per-command cost is noise.
// The session and both buffers live for the whole pass: the command log
// grows by 16 MiB a round, which is what heap_retained_mb shows here.
const (
	bulkChunk  = 1 << 20
	bulkChunks = 16
	bulkSize   = bulkChunk * bulkChunks
)

type bulkXfer struct {
	e        *env
	tc       *testCluster
	sess     *core.Session
	q0, q1   *core.Queue
	src, dst *core.Buffer
	payload  []byte // bulkSize seeded bytes; round r writes them rotated by r chunks
	mirror   []byte
	c        client
	wrong    bool
}

func (w *bulkXfer) setup(e *env) error {
	w.e = e
	w.c.tr = e.tr
	tc, err := startCluster("bulk-xfer", 2, 1, true, e.tr)
	if err != nil {
		return err
	}
	w.tc = tc
	devs := tc.rt.Devices(protocol.DeviceGPU)
	w.sess = tc.rt.OpenSession("bulk-xfer")
	ctx, err := w.sess.CreateContext(devs)
	if err != nil {
		return err
	}
	if w.q0, err = ctx.CreateQueue(devs[0]); err != nil {
		return err
	}
	if w.q1, err = ctx.CreateQueue(devs[1]); err != nil {
		return err
	}
	if w.src, err = ctx.CreateBuffer(bulkSize); err != nil {
		return err
	}
	if w.dst, err = ctx.CreateBuffer(bulkSize); err != nil {
		return err
	}
	w.payload = make([]byte, bulkSize)
	rand.New(rand.NewSource(e.seed)).Read(w.payload)
	w.mirror = make([]byte, bulkSize)
	return nil
}

func (w *bulkXfer) teardown() {
	if w.tc == nil {
		return
	}
	if w.sess != nil {
		// Teardown failures have nobody to report to; the pass is over.
		_ = w.src.Release()
		_ = w.dst.Release()
		_ = w.q0.Release()
		_ = w.q1.Release()
		_ = w.sess.Close()
	}
	w.tc.close()
}

// chunk is the payload slice round r writes at chunk position i.
func (w *bulkXfer) chunk(r, i int) []byte {
	j := (i + r) % bulkChunks
	return w.payload[j*bulkChunk : (j+1)*bulkChunk]
}

func (w *bulkXfer) round(r int) (roundResult, error) {
	res := roundResult{extra: map[string]float64{"written_b": bulkSize}}
	w.c.id = int32(r)
	older := len(w.c.events) // the previous round's events
	before := w.sess.Metrics()

	t0 := time.Now()
	for i := 0; i < bulkChunks; i++ {
		data := w.chunk(r, i)
		if err := w.c.write(w.q0, w.src, int64(i*bulkChunk), data); err != nil {
			return res, err
		}
		copy(w.mirror[i*bulkChunk:], data)
		res.ops++
	}
	if err := w.c.finish(w.q0); err != nil {
		return res, err
	}
	t1 := time.Now()
	// src is valid on node 0 only; copying it on node 1 migrates it there.
	if err := w.c.copy(w.q1, w.src, w.dst, bulkSize); err != nil {
		return res, err
	}
	if err := w.c.finish(w.q1); err != nil {
		return res, err
	}
	res.ops += bulkChunks
	t2 := time.Now()
	got := make([][]byte, bulkChunks)
	for i := range got {
		var err error
		if got[i], err = w.c.read(w.q1, w.dst, int64(i*bulkChunk), bulkChunk); err != nil {
			return res, err
		}
		res.ops++
	}
	t3 := time.Now()
	res.timed = t3.Sub(t0)
	res.extra["write_s"] = t1.Sub(t0).Seconds()
	res.extra["migrate_s"] = t2.Sub(t1).Seconds()
	res.extra["read_s"] = t3.Sub(t2).Seconds()

	// Checking and releasing are outside the timed interval: the first is
	// the benchmark's own work, the second the round's tidy-up.
	if w.e.corruptMirror && !w.wrong {
		w.mirror[0] ^= 1
		w.wrong = true
	}
	var crc uint32
	for i, data := range got {
		if !bytes.Equal(data, w.mirror[i*bulkChunk:(i+1)*bulkChunk]) {
			res.failed++
		}
		crc = hashRead(crc, data)
	}
	// This round's events are the newest in the buffers' chains and must
	// stay; the previous round's have all been superseded.
	w.c.releaseOlder(w.tc.rt, older)
	if err := w.c.blocking(w.sess.Flush); err != nil {
		return res, err
	}
	w.e.atPeak()
	m := w.sess.Metrics()
	res.virtual = m.Makespan.Sub(before.Makespan)
	res.rows = []string{fmt.Sprintf("round=%d ops=%d read_crc=%08x commands=%d wire_bytes=%d peer_wire_bytes=%d makespan_ns=%d",
		r, res.ops, crc, m.Commands-before.Commands, m.WireBytes-before.WireBytes, m.PeerWireBytes-before.PeerWireBytes, int64(m.Makespan))}
	return res, nil
}
