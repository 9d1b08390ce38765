package main

import (
	"runtime"
	"time"
)

// The ladder has one rung per layer function a command crosses. A rung is
// a fixed-iteration loop over exported functions of one layer, repeated
// ladderReps times; the median repetition is reported as time, heap
// allocations and, for bulk rungs, bytes allocated per payload byte.
// Iteration counts are constants, so a rung does the same work on every
// commit; they are sized for a few tens of milliseconds a repetition.
const ladderReps = 5

// cost is what one operation of a rung cost in the median repetition. ns
// is in reference nanoseconds; speed is the calibration factor that made
// it so, for rungs that time a part of their loop themselves.
type cost struct {
	ns     float64
	allocs float64
	bytes  float64
	speed  float64
}

// ladder collects the rungs' metrics. Times are in reference nanoseconds:
// the calibration is sampled around every repetition, as between the
// rounds of a pass (calibrate.go).
type ladder struct {
	m   metrics
	cal *calibrator
}

// rung times f, which performs iters operations per call, after one
// untimed call that faults the path in.
func (l *ladder) rung(iters int, f func()) cost {
	f()
	var ns, allocs, bytes []float64
	var calib []time.Duration
	for rep := 0; rep < ladderReps; rep++ {
		calib = append(calib, l.cal.samples(2)...)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		f()
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		n := float64(iters)
		ns = append(ns, float64(d.Nanoseconds())/n)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/n)
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	}
	sp := speed(append(calib, l.cal.samples(2)...))
	return cost{ns: median(ns) * sp, allocs: median(allocs), bytes: median(bytes), speed: sp}
}

const mib = 1 << 20

// mbPerS converts a per-MiB time into MiB/s, the unit every bulk rate in
// this benchmark is in.
func mbPerS(nsPerMiB float64) float64 { return 1e9 / nsPerMiB }

// runLadder climbs every rung. A rung that cannot set itself up is an
// error: the ladder reports every metric or none.
func runLadder() (metrics, error) {
	l := &ladder{m: metrics{}, cal: newCalibrator()}
	for _, climb := range []func(*ladder) error{
		protocolRungs, transportRungs, nodeRungs, coreRungs, schedRungs, memRungs, kernelRungs, traceRungs,
	} {
		if err := climb(l); err != nil {
			return nil, err
		}
	}
	return l.m, nil
}
