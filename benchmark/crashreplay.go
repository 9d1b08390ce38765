package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/vtime"
)

// crash-replay: the one workload in which core's recovery and command-log
// replay do the work. Three GPU nodes on a transport.MemNetwork, so that a
// kill is exact. A cycle opens a fresh session, logs H write+kernel pairs,
// finishes, and kills one node; the job is the time from the kill until
// the runtime has recovered, every queue has finished again and every
// buffer has been read back and checked. Recovery replays the whole log,
// so its cost is linear in the session's age; a round runs one cycle at H
// and one at H/10, and the difference prices a replayed command.
const (
	crashNodes = 3
	crashH     = 10000 // write+kernel pairs logged before the kill
	crashWords = 64    // 256 B per write
)

type crashReplay struct {
	e      *env
	tc     *testCluster
	devs   []*core.DeviceRef
	first  int      // seeded: the first cycle's victim
	vals   [][]byte // seeded payloads the writes cycle through
	c      client
	wrong  bool
	cycles int
	// makespan is the newest session's; prev the one the last round ended at.
	makespan, prev vtime.Time
}

func (w *crashReplay) setup(e *env) error {
	w.e = e
	w.c.tr = e.tr
	tc, err := startCluster("crash-replay", crashNodes, 1, false, e.tr)
	if err != nil {
		return err
	}
	w.tc = tc
	w.devs = tc.rt.Devices(protocol.DeviceGPU)
	rng := rand.New(rand.NewSource(e.seed))
	w.first = rng.Intn(crashNodes)
	for i := 0; i < 64; i++ {
		v := make([]byte, 4*crashWords)
		rng.Read(v)
		w.vals = append(w.vals, v)
	}
	return nil
}

func (w *crashReplay) teardown() {
	if w.tc != nil {
		w.tc.close()
	}
}

func (w *crashReplay) round(r int) (roundResult, error) {
	res := roundResult{extra: map[string]float64{}}
	w.c.id = int32(r)
	big, err := w.cycle(&res, crashH)
	if err != nil {
		return res, err
	}
	small, err := w.cycle(&res, crashH/10)
	if err != nil {
		return res, err
	}
	res.jobs = []time.Duration{big.job}
	res.timed = big.build + small.build
	res.extra["recover_big_s"] = big.recover.Seconds()
	res.extra["recover_small_s"] = small.recover.Seconds()
	res.extra["replayed_big"] = float64(big.replayed)
	res.extra["replayed_small"] = float64(small.replayed)
	res.virtual = w.makespan.Sub(w.prev)
	w.prev = w.makespan
	return res, nil
}

type cycleTimes struct {
	build, recover, job time.Duration
	replayed            int64 // log entries the recovery re-issued
}

// cycle is one session's life: build h pairs, crash, recover, verify,
// release, and bring the victim back for the next cycle.
func (w *crashReplay) cycle(res *roundResult, h int) (cycleTimes, error) {
	var ct cycleTimes
	rt := w.tc.rt
	// The seed picks the first victim; after that the nodes take turns, so
	// that what the survivors have accumulated does not depend on the seed.
	victim := w.devs[(w.first+w.cycles)%crashNodes].Node()
	w.cycles++

	var (
		sess *core.Session
		qs   [crashNodes]*core.Queue
		ks   [crashNodes]*core.Kernel
		bufs [crashNodes]*core.Buffer
	)
	err := w.c.blocking(func() error {
		sess = rt.OpenSession("crash-replay")
		ctx, err := sess.CreateContext(w.devs)
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
		for i, dev := range w.devs {
			if qs[i], err = ctx.CreateQueue(dev); err != nil {
				return err
			}
			if bufs[i], err = ctx.CreateBuffer(4 * crashWords); err != nil {
				return err
			}
			if ks[i], err = prog.CreateKernel("bench_incr"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return ct, err
	}
	for i := range ks {
		if err := w.c.setArg(ks[i], 0, bufs[i]); err != nil {
			return ct, err
		}
		if err := w.c.setArg(ks[i], 1, int32(crashWords)); err != nil {
			return ct, err
		}
	}

	// Build phase: the session's history, mirrored on the host. The launch
	// is one work-group, so the executor's per-group cost stays small
	// beside the command's.
	oneGroup := []int{crashWords}
	var mirror [crashNodes][]byte
	t0 := time.Now()
	for p := 0; p < h; p++ {
		i := p % crashNodes
		v := w.vals[(w.cycles*7+p)%len(w.vals)]
		if err := w.c.write(qs[i], bufs[i], 0, v); err != nil {
			return ct, err
		}
		if err := w.c.launch(qs[i], ks[i], oneGroup, oneGroup, nil); err != nil {
			return ct, err
		}
		mirror[i] = v
		res.ops += 2
	}
	for _, q := range qs {
		if err := w.c.finish(q); err != nil {
			return ct, err
		}
	}
	ct.build = time.Since(t0)
	// Every node is alive and the chains are quiet: the one moment at
	// which the build phase's events can all be released.
	w.c.releaseEvents(rt)
	if err := w.c.blocking(sess.Flush); err != nil {
		return ct, err
	}
	before := sess.Metrics()

	// Crash, then everything a host program does to get its data back.
	t1 := time.Now()
	w.tc.kill(victim.Name())
	for victim.Alive() {
		time.Sleep(20 * time.Microsecond) // until the transport reports the connection down
	}
	s := w.c.tr.begin()
	err = rt.Recover()
	w.c.done(spRecover, s)
	ct.recover = time.Since(t1)
	if err != nil {
		return ct, fmt.Errorf("recover: %w", err)
	}
	for _, q := range qs {
		if err := w.c.finish(q); err != nil {
			return ct, err
		}
	}
	var crc uint32
	for i, q := range qs {
		got, err := w.c.read(q, bufs[i], 0, 4*crashWords)
		res.ops++
		if err != nil {
			return ct, err
		}
		want := append([]byte(nil), mirror[i]...)
		for x := 0; x < crashWords; x++ {
			binary.LittleEndian.PutUint32(want[4*x:], binary.LittleEndian.Uint32(want[4*x:])+1)
		}
		if w.e.corruptMirror && !w.wrong {
			want[0] ^= 1
			w.wrong = true
		}
		if !bytes.Equal(got, want) {
			res.failed++
		}
		crc = hashRead(crc, got)
	}
	ct.job = time.Since(t1)
	if h == crashH {
		w.e.atPeak()
	}

	m := sess.Metrics()
	w.makespan = m.Makespan
	ct.replayed = m.ReplayedCommands
	res.rows = append(res.rows, fmt.Sprintf("cycle=%d h=%d victim=%s read_crc=%08x commands=%d replayed=%d recoveries=%d wire_bytes=%d makespan_ns=%d",
		w.cycles, h, victim.Name(), crc, before.Commands, m.ReplayedCommands, m.Recoveries, m.WireBytes, int64(m.Makespan)))

	err = w.c.blocking(func() error {
		w.c.releaseEvents(rt)
		for i := range qs {
			if err := bufs[i].Release(); err != nil {
				return err
			}
			if err := ks[i].Release(); err != nil {
				return err
			}
			if err := qs[i].Release(); err != nil {
				return err
			}
		}
		if err := sess.Close(); err != nil {
			return err
		}
		return w.tc.restart(victim.Name())
	})
	return ct, err
}
