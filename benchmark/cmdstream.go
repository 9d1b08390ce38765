package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/haocl-project/haocl/internal/apps/matmul"
	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/vtime"
)

// cmd-stream: one client pipelines small commands at two loopback-TCP GPU
// nodes. Per tile it writes two 256 B operands and launches an 8×8 matmul
// modelled at paper scale, so nearly all the work is per-command cost in
// core enqueue, the protocol codec, the transport coalescer and the node's
// registration and lanes; payload copies and kernel execution are noise.
const (
	cmdTile      = 8    // functional tile edge (8×8 floats = 256 B)
	cmdTilesPerQ = 2500 // per queue and round: 2 × 2500 × 3 = 15 000 commands
	cmdPool      = 64   // distinct operand payloads generated per pass
)

type cmdStream struct {
	e     *env
	tc    *testCluster
	devs  []*core.DeviceRef
	pool  [][]byte
	opts  *core.LaunchOptions
	c     client
	wrong bool       // the mirror was corrupted once already
	prev  vtime.Time // makespan at the end of the previous round
}

type cmdQueue struct {
	q       *core.Queue
	k       *core.Kernel
	a, b, c *core.Buffer
}

func (w *cmdStream) setup(e *env) error {
	w.e = e
	w.c.tr = e.tr
	tc, err := startCluster("cmd-stream", 2, 1, true, e.tr)
	if err != nil {
		return err
	}
	w.tc = tc
	w.devs = tc.rt.Devices(protocol.DeviceGPU)
	rng := rand.New(rand.NewSource(e.seed))
	for i := 0; i < cmdPool; i++ {
		tile := make([]float32, cmdTile*cmdTile)
		for j := range tile {
			tile[j] = float32(rng.Intn(8)) * 0.25 // products and sums stay exact
		}
		w.pool = append(w.pool, mem.F32Bytes(tile))
	}
	costs := matmul.Cost(1000, 1000, 1000)
	w.opts = &core.LaunchOptions{CostFlops: costs.Flops, CostBytes: costs.Bytes}
	return nil
}

func (w *cmdStream) teardown() {
	if w.tc != nil {
		w.tc.close()
	}
}

// operands picks tile t's two payloads for queue d.
func (w *cmdStream) operands(r, d, t int) (a, b []byte) {
	i := r*31 + d*17 + t
	return w.pool[i%cmdPool], w.pool[(i*7+3)%cmdPool]
}

func (w *cmdStream) round(r int) (roundResult, error) {
	res := roundResult{}
	w.c.id = int32(r)
	rt := w.tc.rt
	var sess *core.Session
	qs := make([]cmdQueue, len(w.devs))
	err := w.c.blocking(func() error {
		sess = rt.OpenSession("cmd-stream")
		ctx, err := sess.CreateContext(w.devs)
		if err != nil {
			return err
		}
		prog, err := ctx.CreateProgram(matmul.Source)
		if err != nil {
			return err
		}
		if err := prog.Build(); err != nil {
			return err
		}
		for i, dev := range w.devs {
			st := &qs[i]
			if st.q, err = ctx.CreateQueue(dev); err != nil {
				return err
			}
			for _, b := range []**core.Buffer{&st.a, &st.b, &st.c} {
				if *b, err = ctx.CreateBuffer(4 * cmdTile * cmdTile); err != nil {
					return err
				}
			}
			if st.k, err = prog.CreateKernel("matmul"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	for _, st := range qs {
		for i, v := range []any{st.a, st.b, st.c, int32(cmdTile), int32(cmdTile), int32(cmdTile)} {
			if err := w.c.setArg(st.k, i, v); err != nil {
				return res, err
			}
		}
	}

	dims := []int{cmdTile, cmdTile}
	for t := 0; t < cmdTilesPerQ; t++ {
		for d, st := range qs {
			a, b := w.operands(r, d, t)
			if err := w.c.write(st.q, st.a, 0, a); err != nil {
				return res, err
			}
			if err := w.c.write(st.q, st.b, 0, b); err != nil {
				return res, err
			}
			if err := w.c.launch(st.q, st.k, dims, dims, w.opts); err != nil {
				return res, err
			}
			res.ops += 3
		}
	}
	for _, st := range qs {
		if err := w.c.finish(st.q); err != nil {
			return res, err
		}
	}

	// The last tile's product is what each device must hold now.
	var crc uint32
	for d, st := range qs {
		got, err := w.c.read(st.q, st.c, 0, 4*cmdTile*cmdTile)
		res.ops++
		if err != nil {
			return res, err
		}
		a, b := w.operands(r, d, cmdTilesPerQ-1)
		want := tileProduct(a, b)
		if w.e.corruptMirror && !w.wrong {
			want[0] ^= 1
			w.wrong = true
		}
		if !bytes.Equal(got, want) {
			res.failed++
		}
		crc = hashRead(crc, got)
	}

	w.e.atPeak()
	m := sess.Metrics()
	err = w.c.blocking(func() error {
		w.c.releaseEvents(rt)
		for _, st := range qs {
			for _, b := range []*core.Buffer{st.a, st.b, st.c} {
				if err := b.Release(); err != nil {
					return err
				}
			}
			if err := st.k.Release(); err != nil {
				return err
			}
			if err := st.q.Release(); err != nil {
				return err
			}
		}
		return sess.Close()
	})
	res.virtual = m.Makespan.Sub(w.prev)
	w.prev = m.Makespan
	res.rows = []string{fmt.Sprintf("round=%d ops=%d read_crc=%08x commands=%d wire_bytes=%d makespan_ns=%d",
		r, res.ops, crc, m.Commands, m.WireBytes, int64(m.Makespan))}
	return res, err
}

// tileProduct is the host mirror of the matmul kernel: the same float32
// accumulation order, so the bytes match exactly.
func tileProduct(aBytes, bBytes []byte) []byte {
	a, b := mem.BytesF32(aBytes), mem.BytesF32(bBytes)
	c := make([]float32, cmdTile*cmdTile)
	for i := 0; i < cmdTile; i++ {
		for j := 0; j < cmdTile; j++ {
			var acc float32
			for k := 0; k < cmdTile; k++ {
				acc += a[i*cmdTile+k] * b[k*cmdTile+j]
			}
			c[i*cmdTile+j] = acc
		}
	}
	return mem.F32Bytes(c)
}
