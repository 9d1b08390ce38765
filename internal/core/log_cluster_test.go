package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/protocol"
)

// xferFixture is bulk-xfer in miniature (benchmark/bulkxfer.go): src is
// rewritten in xferChunks chunks through a queue on node 0, then copied
// into dst on node 1, which migrates it node to node.
type xferFixture struct {
	sess     *core.Session
	q0, q1   *core.Queue
	src, dst *core.Buffer
	mirror   []byte
	rng      *rand.Rand
}

const (
	xferChunk  = 64
	xferChunks = 8
	xferSize   = xferChunk * xferChunks
)

func newXferFixture(t *testing.T, rt *core.Runtime) *xferFixture {
	t.Helper()
	devs := rt.Devices(protocol.DeviceGPU)
	f := &xferFixture{sess: rt.OpenSession("xfer"), mirror: make([]byte, xferSize), rng: rand.New(rand.NewSource(23))}
	ctx, err := f.sess.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	if f.q0, err = ctx.CreateQueue(devs[0]); err != nil {
		t.Fatal(err)
	}
	if f.q1, err = ctx.CreateQueue(devs[1]); err != nil {
		t.Fatal(err)
	}
	if f.src, err = ctx.CreateBuffer(xferSize); err != nil {
		t.Fatal(err)
	}
	if f.dst, err = ctx.CreateBuffer(xferSize); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *xferFixture) round(t *testing.T) {
	t.Helper()
	f.rng.Read(f.mirror)
	for i := 0; i < xferChunks; i++ {
		if _, err := f.q0.EnqueueWrite(f.src, int64(i*xferChunk), f.mirror[i*xferChunk:(i+1)*xferChunk]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.q1.EnqueueCopy(f.src, f.dst, 0, 0, xferSize); err != nil {
		t.Fatal(err)
	}
}

// TestLogReplayIndependentOfRounds: however many rounds of rewrites and
// cross-node copies a session ran, a crash replays the one round that
// still matters — eight writes and a copy — and both buffers come back
// exact.
func TestLogReplayIndependentOfRounds(t *testing.T) {
	for _, rounds := range []int{1, 2, 7, 40} {
		t.Run(fmt.Sprintf("rounds=%d", rounds), func(t *testing.T) {
			cc := startChaosCluster(t, 2)
			f := newXferFixture(t, cc.rt)
			for r := 0; r < rounds; r++ {
				f.round(t)
			}
			for _, q := range []*core.Queue{f.q0, f.q1} {
				if _, err := q.Finish(); err != nil {
					t.Fatal(err)
				}
			}
			// Node 1 holds the only copy of dst: reading it through node 0
			// cannot succeed without a recovery.
			cc.kill(cc.cfg.Nodes[1].Name)
			for _, b := range []*core.Buffer{f.dst, f.src} {
				got, _, err := f.q0.EnqueueRead(b, 0, xferSize)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, f.mirror) {
					t.Fatalf("buffer diverged from the mirror after recovery")
				}
			}
			m := f.sess.Metrics()
			if m.Recoveries != 1 || m.ReplayedCommands != xferChunks+1 {
				t.Fatalf("%d recoveries replayed %d commands, want 1 and %d", m.Recoveries, m.ReplayedCommands, xferChunks+1)
			}
		})
	}
}

// TestLogFlatAcrossRounds: the log of a session that streams data through
// two buffers is as long after a hundred rounds as after two — the in-repo
// form of bulk-xfer's heap_retained_mb not depending on the pass length.
func TestLogFlatAcrossRounds(t *testing.T) {
	rt := startRuntime(t, 2)
	f := newXferFixture(t, rt)
	var after2 core.Metrics
	for r := 1; r <= 100; r++ {
		f.round(t)
		if r == 2 {
			after2 = f.sess.Metrics()
		}
	}
	m := f.sess.Metrics()
	if m.LogEntries != after2.LogEntries || m.LogBytes != after2.LogBytes {
		t.Fatalf("log after 100 rounds: %d entries, %d bytes; after 2: %d entries, %d bytes",
			m.LogEntries, m.LogBytes, after2.LogEntries, after2.LogBytes)
	}
	if m.LogEntries != xferChunks+1 || m.LogBytes != xferSize {
		t.Fatalf("log holds %d entries and %d bytes, want one round: %d and %d", m.LogEntries, m.LogBytes, xferChunks+1, xferSize)
	}
	if agg := rt.Metrics(); agg.LogEntries != m.LogEntries || agg.LogBytes != m.LogBytes {
		t.Fatalf("runtime reports %d entries, %d bytes for its one session's %d, %d", agg.LogEntries, agg.LogBytes, m.LogEntries, m.LogBytes)
	}
	var prom bytes.Buffer
	if err := rt.WriteMetrics(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE haocl_log_entries gauge\nhaocl_log_entries 9\nhaocl_log_entries{tenant=\"xfer\"} 9\n",
		"# TYPE haocl_log_bytes gauge\nhaocl_log_bytes 512\nhaocl_log_bytes{tenant=\"xfer\"} 512\n",
	} {
		if !bytes.Contains(prom.Bytes(), []byte(want)) {
			t.Fatalf("metrics export lacks %q:\n%s", want, prom.String())
		}
	}
}

// TestLogForgetsReleasedBuffers: a long-lived session that allocates and
// releases a buffer per job ends a thousand jobs with the log it had after
// the first.
func TestLogForgetsReleasedBuffers(t *testing.T) {
	rt := startRuntime(t, 1)
	sess := rt.OpenSession("jobs")
	ctx, err := sess.CreateContext(rt.Devices(protocol.DeviceGPU))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(rt.Devices(protocol.DeviceGPU)[0])
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)
	var first core.Metrics
	for job := 0; job < 1000; job++ {
		payload[0] = byte(job)
		buf, err := ctx.CreateBuffer(int64(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueWrite(buf, 0, payload); err != nil {
			t.Fatal(err)
		}
		got, _, err := q.EnqueueRead(buf, 0, int64(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("job %d read back other bytes than it wrote", job)
		}
		if m := sess.Metrics(); m.LogEntries != 1 || m.LogBytes != int64(len(payload)) {
			t.Fatalf("job %d: log holds %d entries, %d bytes before the release", job, m.LogEntries, m.LogBytes)
		}
		if err := buf.Release(); err != nil {
			t.Fatal(err)
		}
		if job == 0 {
			first = sess.Metrics()
		}
	}
	m := sess.Metrics()
	if m.LogEntries != first.LogEntries || m.LogBytes != first.LogBytes || m.LogEntries != 0 {
		t.Fatalf("log after 1000 jobs: %d entries, %d bytes; after the first: %d entries, %d bytes",
			m.LogEntries, m.LogBytes, first.LogEntries, first.LogBytes)
	}
}

// TestLogTransferProgramsSurviveCrash: seeded transfer-heavy programs —
// ranged and full writes, ranged copies, broadcasts, the odd kernel — on
// three buffers across two nodes, with a crash at the end: every buffer
// comes back as the mirror has it, from a log that kept only what the
// final contents depend on.
func TestLogTransferProgramsSurviveCrash(t *testing.T) {
	const floats = 32
	const nBufs = 3
	for seed := int64(1); seed <= 60; seed++ {
		cc := startChaosCluster(t, 2)
		rng := rand.New(rand.NewSource(seed))
		ctx, k, queues, bufs := chaosObjects(t, cc.rt, nBufs, floats*4)
		mirror := make([][]float32, nBufs)
		for i := range mirror {
			mirror[i] = make([]float32, floats)
		}
		randQ := func() *core.Queue { return queues[rng.Intn(len(queues))] }
		randVals := func(n int) []float32 {
			vals := make([]float32, n)
			for i := range vals {
				vals[i] = float32(rng.Intn(1000))
			}
			return vals
		}
		steps := 20 + rng.Intn(30)
		for step := 0; step < steps; step++ {
			bi := rng.Intn(nBufs)
			b, m := bufs[bi], mirror[bi]
			lo := rng.Intn(floats)
			hi := lo + 1 + rng.Intn(floats-lo)
			switch op := rng.Intn(100); {
			case op < 35:
				vals := randVals(hi - lo)
				if _, err := randQ().EnqueueWrite(b, int64(lo*4), mem.F32Bytes(vals)); err != nil {
					t.Fatalf("seed %d step %d write: %v", seed, step, err)
				}
				copy(m[lo:hi], vals)
			case op < 50:
				vals := randVals(floats)
				if _, err := randQ().EnqueueWrite(b, 0, mem.F32Bytes(vals)); err != nil {
					t.Fatalf("seed %d step %d full write: %v", seed, step, err)
				}
				copy(m, vals)
			case op < 80:
				oi := (bi + 1 + rng.Intn(nBufs-1)) % nBufs
				to := rng.Intn(floats - (hi - lo) + 1)
				if _, err := randQ().EnqueueCopy(b, bufs[oi], int64(lo*4), int64(to*4), int64((hi-lo)*4)); err != nil {
					t.Fatalf("seed %d step %d copy: %v", seed, step, err)
				}
				copy(mirror[oi][to:], m[lo:hi])
			case op < 90:
				vals := randVals(floats)
				if _, err := ctx.Broadcast(b, mem.F32Bytes(vals), queues); err != nil {
					t.Fatalf("seed %d step %d broadcast: %v", seed, step, err)
				}
				copy(m, vals)
			default:
				if err := k.SetArg(0, b); err != nil {
					t.Fatal(err)
				}
				if err := k.SetArg(1, int32(floats)); err != nil {
					t.Fatal(err)
				}
				if _, err := randQ().EnqueueKernel(k, []int{floats}, nil, nil, nil); err != nil {
					t.Fatalf("seed %d step %d kernel: %v", seed, step, err)
				}
				for i := range m {
					m[i]++
				}
			}
		}
		// Reading through the victim's own queue cannot succeed without a
		// recovery, wherever the data is.
		victim := queues[rng.Intn(len(queues))]
		cc.kill(victim.Device().Key().Node)
		for i, b := range bufs {
			data, _, err := victim.EnqueueRead(b, 0, floats*4)
			if err != nil {
				t.Fatalf("seed %d: read after the crash: %v", seed, err)
			}
			for j, v := range mem.BytesF32(data) {
				if v != mirror[i][j] {
					t.Fatalf("seed %d: buffer %d float %d = %v after recovery, mirror %v", seed, i, j, v, mirror[i][j])
				}
			}
		}
		if m := cc.rt.Metrics(); m.Recoveries == 0 {
			t.Fatalf("seed %d: the crash triggered no recovery", seed)
		}
		cc.close()
	}
}
