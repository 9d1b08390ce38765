package main

import (
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"time"
)

// env is what a workload is given: the seed its inputs are generated from
// and, on the traced pass only, the span recorder.
type env struct {
	seed int64
	tr   *tracer
	// corruptMirror makes the workload flip one byte of its host mirror
	// before checking a read. Only the self-test sets it, to prove that a
	// content mismatch is counted and fails the run.
	corruptMirror bool
	// peak, when set, is called by the round at the moment everything it
	// created is still open and its last command has completed.
	peak func()
}

// atPeak marks that moment. A round calls it exactly once.
func (e *env) atPeak() {
	if e.peak != nil {
		e.peak()
	}
}

// workload is one benchmark workload. A pass calls setup once, round once
// per warm-up and measured round, then teardown. Op counts per round are
// compile-time constants: the seed changes inputs, never the amount of work.
type workload interface {
	setup(e *env) error
	round(r int) (roundResult, error)
	teardown()
}

type roundResult struct {
	ops    int // operations attempted
	failed int // of those: failed, refused or read back wrong
	// timed is the interval ops_per_s divides by; zero means the whole round.
	timed time.Duration
	// jobs are the latencies of the jobs the round completed; nil means
	// the round itself is the job.
	jobs []time.Duration
	// rows describe what the round read and what its session accounted,
	// virtual time included. They must repeat exactly for a seed.
	rows []string
	// virtual is how far the round advanced the virtual makespan, where
	// that is a function of the seed.
	virtual time.Duration
	// extra are a workload's own inputs to per-layer metrics (bulk-xfer's
	// phase intervals, crash-replay's recovery times), by name.
	extra map[string]float64
}

// workloadSpec fixes a workload's shape. The counts are constants so that
// operation counts, digests and virtual results are identical across
// commits; a run is made longer by adding passes, never rounds.
type workloadSpec struct {
	name string
	why  string
	// warm, rounds and traced are the warm-up, measured and traced-pass
	// measured rounds of one pass.
	warm, rounds, traced int
	// clients is the number of goroutines calling the API in a round.
	clients int
	// unscaled reports the workload's times as measured rather than in
	// reference seconds: bulk-xfer is bound by copies and the loopback
	// socket, which the machine's slow spells leave alone, so scaling by
	// a calibration they do slow would add their noise instead of
	// removing it (A/A spread of its rate: 6 % as measured, 15 % scaled).
	unscaled bool
	opUnit   string
	jobUnit  string
	newFn    func() workload
}

// roundSample is one measured round with the process-wide costs it incurred.
type roundSample struct {
	roundResult
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	allocB  uint64
}

func (s roundSample) window() time.Duration {
	if s.timed > 0 {
		return s.timed
	}
	return s.wall
}

// passResult is one pass: one fresh cluster, set up, warmed and measured.
type passResult struct {
	setup     time.Duration
	heapSetup float64 // MB live at the end of set-up
	heapPeak  float64 // MB live at the peak of the pass's last, untimed round
	rounds    []roundSample
	rows      []string // digest rows of every round, warm-up included
	attempted int
	failed    int
	wall      time.Duration // whole pass
	// calib are the calibration samples taken between the pass's measured
	// rounds, speed the factor they give: every time of the pass is
	// multiplied by it on the way into a metric (calibrate.go).
	calib     []time.Duration
	speed     float64
	gcCycles  uint32
	gcPauseNS uint64
}

// timeSetups runs setupReps set-ups, tearing each down again: samples for
// setup_s that cost no measured rounds, in reference seconds.
func timeSetups(spec workloadSpec, e *env) ([]float64, error) {
	cal := newCalibrator()
	var raw []time.Duration
	var calib []time.Duration
	for i := 0; i < setupReps; i++ {
		calib = append(calib, cal.samples(2)...)
		w := spec.newFn()
		t0 := time.Now()
		err := w.setup(e)
		raw = append(raw, time.Since(t0))
		w.teardown()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
		}
	}
	calib = append(calib, cal.samples(2)...)
	sp := speed(calib)
	if spec.unscaled {
		sp = 1
	}
	out := make([]float64, len(raw))
	for i, d := range raw {
		out[i] = d.Seconds() * sp
	}
	return out, nil
}

// runPass runs one pass of the workload. measured overrides spec.rounds
// (the traced pass runs fewer).
func runPass(spec workloadSpec, e *env, measured int) (passResult, error) {
	var p passResult
	passStart := time.Now()
	cal := newCalibrator()
	perBoundary := (calibPerPass + measured) / (measured + 1)
	w := spec.newFn()
	defer w.teardown()

	t0 := time.Now()
	if err := w.setup(e); err != nil {
		return p, fmt.Errorf("%s: set-up: %w", spec.name, err)
	}
	p.setup = time.Since(t0)
	p.heapSetup = liveHeapMB()

	for r := 0; r < spec.warm+measured; r++ {
		record := r >= spec.warm
		if record {
			p.calib = append(p.calib, cal.samples(perBoundary)...)
			e.tr.startRound(r - spec.warm)
		}
		mem0 := readCounters()
		cpu0 := cpuTime()
		start := time.Now()
		res, err := w.round(r)
		wall := time.Since(start)
		cpu := cpuTime() - cpu0
		mem1 := readCounters()
		if record {
			e.tr.endRound()
		}
		if err != nil {
			return p, fmt.Errorf("%s: round %d: %w", spec.name, r, err)
		}
		p.attempted += res.ops
		p.failed += res.failed
		p.rows = append(p.rows, res.rows...)
		if !record {
			continue
		}
		if res.jobs == nil {
			res.jobs = []time.Duration{wall}
		}
		p.rounds = append(p.rounds, roundSample{
			roundResult: res, wall: wall, cpu: cpu,
			mallocs: mem1.mallocs - mem0.mallocs, allocB: mem1.allocB - mem0.allocB,
		})
		p.gcCycles += mem1.gcCycles - mem0.gcCycles
		p.gcPauseNS += mem1.gcPauseNS - mem0.gcPauseNS
	}
	p.calib = append(p.calib, cal.samples(perBoundary)...)
	p.speed = speed(p.calib)
	if spec.unscaled {
		p.speed = 1
	}

	// One more round, untimed, for the memory the workload holds: at its
	// peak, sessions still open, the garbage is forced out and what is
	// still reachable is counted. Doing that inside a timed round would
	// spoil its times, and after a round would miss the session.
	e.peak = func() { p.heapPeak = liveHeapMB() }
	res, err := w.round(spec.warm + measured)
	e.peak = nil
	if err != nil {
		return p, fmt.Errorf("%s: heap round: %w", spec.name, err)
	}
	p.attempted += res.ops
	p.failed += res.failed
	p.rows = append(p.rows, res.rows...)
	p.wall = time.Since(passStart)
	return p, nil
}

// digest folds a pass's rows into one value for the result file.
func digest(rows []string) string {
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// firstDiff names the first row in which two row lists differ.
func firstDiff(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("row %d: got %q, want %q", i, g, w)
		}
	}
	return ""
}

// crcTable is CRC-32C, which amd64 and arm64 compute in hardware: hashing
// every byte read back costs a small share of moving it.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// hashRead folds bytes read back from the cluster into a digest value.
func hashRead(h uint32, b []byte) uint32 { return crc32.Update(h, crcTable, b) }
