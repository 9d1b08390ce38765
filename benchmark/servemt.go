package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/sched"
)

// serve-mt: the layers of cmd-stream used the other way. Two tenants, each
// on its own goroutine, session and GPU of one loopback-TCP node, run jobs
// behind one shared sched.Admission: write 1, 4 or 16 KiB, bump its first
// 64 words with a kernel, read it back and check it. Every job blocks on a
// round trip, so latency, not pipelined rate, is what counts, and the
// tenants contend for the runtime's and the node session's locks, the one
// connection and its coalescer.
const (
	serveTenants  = 2
	serveJobs     = 500 // per tenant and round; 3 commands a job
	serveInflight = 2   // admission's in-flight cap
	servePool     = 64 << 10
)

var serveSizes = [...]int{1 << 10, 4 << 10, 16 << 10}

type serveMT struct {
	e       *env
	tc      *testCluster
	devs    []*core.DeviceRef
	adm     *sched.Admission
	tenants [serveTenants]*serveTenant
	// jobIDs are the tenants' current jobs, read by the traced node side.
	jobIDs [serveTenants]atomic.Int32
	// served counts the tenants whose jobs are done; release lets them go
	// on to close their sessions. Between the two, every session of the
	// round is open and idle: the round's peak.
	served  sync.WaitGroup
	release chan struct{}
}

type serveTenant struct {
	name  string
	pool  []byte // seeded payload bytes jobs slice their input from
	kinds []int  // seeded order of job sizes (indices into serveSizes), one round's worth
	c     client
	wrong bool

	jobs   []time.Duration
	failed int
	crc    uint32
	close  func() error // releases what the round opened
}

func (w *serveMT) setup(e *env) error {
	w.e = e
	tc, err := startCluster("serve-mt", 1, serveTenants, true, e.tr)
	if err != nil {
		return err
	}
	w.tc = tc
	w.devs = tc.rt.Devices(protocol.DeviceGPU)
	w.adm = sched.NewAdmission(sched.NewFairQueue(time.Millisecond), serveInflight)
	for i := range w.tenants {
		rng := rand.New(rand.NewSource(e.seed*131 + int64(i)))
		t := &serveTenant{name: fmt.Sprintf("tenant-%d", i), pool: make([]byte, servePool)}
		rng.Read(t.pool)
		// The same number of jobs of each size whatever the seed, which
		// decides their order only: the seed never changes the amount of work.
		for j := 0; j < serveJobs; j++ {
			t.kinds = append(t.kinds, j%len(serveSizes))
		}
		rng.Shuffle(len(t.kinds), func(a, b int) { t.kinds[a], t.kinds[b] = t.kinds[b], t.kinds[a] })
		t.c = client{tr: e.tr, lane: uint8(i)}
		w.tenants[i] = t
	}
	if e.tr != nil {
		// Tenant i has device i+1 of the node to itself, which is how the
		// node side learns which job a request belongs to.
		e.tr.idOf = func(dev uint32) int32 { return w.jobIDs[dev-1].Load() }
	}
	return nil
}

func (w *serveMT) teardown() {
	if w.tc != nil {
		w.tc.close()
	}
}

func (w *serveMT) round(r int) (roundResult, error) {
	var wg sync.WaitGroup
	errs := make([]error, serveTenants)
	w.release = make(chan struct{})
	w.served.Add(serveTenants)
	for i, t := range w.tenants {
		wg.Add(1)
		go func(i int, t *serveTenant) {
			defer wg.Done()
			errs[i] = w.serve(r, i, t)
		}(i, t)
	}
	w.served.Wait()
	w.e.atPeak()
	close(w.release)
	wg.Wait()
	res := roundResult{}
	row := fmt.Sprintf("round=%d", r)
	for i, t := range w.tenants {
		if errs[i] != nil {
			return res, errs[i]
		}
		res.ops += 3 * serveJobs
		res.failed += t.failed
		res.jobs = append(res.jobs, t.jobs...)
		row += fmt.Sprintf(" %s: jobs=%d read_crc=%08x", t.name, len(t.jobs), t.crc)
	}
	// Concurrent tenants reach the modelled host NIC in arrival order, so
	// virtual time is not a function of the seed here and stays out of the row.
	res.rows = []string{row}
	return res, nil
}

// serve is one tenant's round: open a session on its GPU, run its jobs,
// release everything.
func (w *serveMT) serve(r, i int, t *serveTenant) error {
	err := w.serveJobs(r, i, t)
	w.served.Done()
	<-w.release
	if err != nil {
		return err
	}
	return t.c.blocking(t.close)
}

func (w *serveMT) serveJobs(r, i int, t *serveTenant) error {
	t.jobs, t.failed, t.crc, t.close = t.jobs[:0], 0, 0, nil
	rt := w.tc.rt
	c := &t.c
	c.id = int32(r*serveJobs*serveTenants + i)
	var (
		sess *core.Session
		q    *core.Queue
		k    *core.Kernel
		bufs [len(serveSizes)]*core.Buffer
	)
	err := c.blocking(func() error {
		sess = rt.OpenSession(t.name)
		ctx, err := sess.CreateContext(w.devs[i : i+1])
		if err != nil {
			return err
		}
		prog, err := ctx.CreateProgram(incrSource)
		if err != nil {
			return err
		}
		if err := prog.Build(); err != nil {
			return err
		}
		if q, err = ctx.CreateQueue(w.devs[i]); err != nil {
			return err
		}
		if k, err = prog.CreateKernel("bench_incr"); err != nil {
			return err
		}
		for s, size := range serveSizes {
			if bufs[s], err = ctx.CreateBuffer(int64(size)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := c.setArg(k, 1, int32(incrWords)); err != nil {
		return err
	}

	oneGroup := []int{incrWords} // global = local: one work-group a launch
	for j, kind := range t.kinds {
		c.id = int32((r*serveJobs+j)*serveTenants + i)
		w.jobIDs[i].Store(c.id)
		size, buf := serveSizes[kind], bufs[kind]
		off := (r*serveJobs + j) * 64 % (servePool - size)
		in := t.pool[off : off+size]

		start := time.Now()
		s := c.tr.begin()
		w.adm.Acquire(t.name, time.Millisecond)
		c.done(spAdmission, s)
		err := c.write(q, buf, 0, in)
		if err == nil {
			err = c.setArg(k, 0, buf)
		}
		if err == nil {
			err = c.launch(q, k, oneGroup, oneGroup, nil)
		}
		var got []byte
		if err == nil {
			got, err = c.read(q, buf, 0, int64(size))
		}
		w.adm.Release(t.name)
		t.jobs = append(t.jobs, time.Since(start))
		if err != nil {
			return fmt.Errorf("%s job %d: %w", t.name, j, err)
		}

		// The mirror of a job: its input with the first words bumped.
		ok := len(got) == size && bytes.Equal(got[4*incrWords:], in[4*incrWords:])
		for x := 0; ok && x < incrWords; x++ {
			want := binary.LittleEndian.Uint32(in[4*x:]) + 1
			if w.e.corruptMirror && !t.wrong {
				want ^= 1
				t.wrong = true
			}
			ok = binary.LittleEndian.Uint32(got[4*x:]) == want
		}
		if !ok {
			t.failed++
		}
		t.crc = hashRead(t.crc, got)
	}

	t.close = func() error {
		// A buffer's newest event must outlive the buffer's next use, so
		// the round's events go together with its buffers.
		c.releaseEvents(rt)
		for _, b := range bufs {
			if err := b.Release(); err != nil {
				return err
			}
		}
		if err := k.Release(); err != nil {
			return err
		}
		if err := q.Release(); err != nil {
			return err
		}
		return sess.Close()
	}
	return nil
}
