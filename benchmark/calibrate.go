package main

import (
	"sort"
	"time"
)

// The sandbox this benchmark was written on does not run at one speed.
// For a minute or so at a time, several times in ten minutes, the same
// instructions take up to 1.4 times as long, with no steal time to show
// for it: code that keeps the core's execution units busy slows down,
// while a dependent chain of integer operations, a large copy or a
// pointer chase do not, which is what a busy sibling hyper-thread on the
// host does. User CPU time stretches exactly as wall time does. Runs of
// one commit a few minutes apart then differ by more than any change the
// benchmark is meant to resolve (README.md, "Reference seconds").
//
// So time is measured against a yardstick that stretches with the
// machine. A fixed calibration computation is timed between the rounds of
// a pass, and the pass's times are multiplied by nominal/measured: what
// is reported is time in reference seconds, the seconds of a machine on
// which the calibration takes exactly calibNominal, which is this
// sandbox left alone. In a record of 1240 rounds of cmd-stream the
// calibration correlates 0.84 to 0.94 with the round time (by pass, by
// run), and over ten runs a workload dividing by it cuts the run-to-run
// spread of the timing metrics to between a quarter and a half.
//
// The calibration is ordinary Go of the kind the runtime under test is
// made of (sorting, map updates, small allocations that die young) and
// standard-library code only, so no change to the repository can move
// it. Counts, bytes and heap sizes are not times and are never scaled.
const (
	calibNominal = 1400 * time.Microsecond
	calibInts    = 2048
	calibReps    = 6
	// calibPerPass is how many samples a pass collects at least; passes of
	// few rounds take several samples at each round boundary.
	calibPerPass = 20
)

type calibNode struct {
	next *calibNode
	v    [3]int
}

type calibrator struct {
	ints []int
	x    uint64
	sink int
}

func newCalibrator() *calibrator {
	return &calibrator{ints: make([]int, calibInts), x: 88172645463325252}
}

// sample runs the calibration once and returns how long it took.
func (c *calibrator) sample() time.Duration {
	start := time.Now()
	x := c.x
	for rep := 0; rep < calibReps; rep++ {
		for i := range c.ints {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			c.ints[i] = int(x >> 40)
		}
		sort.Ints(c.ints)
		m := make(map[int]int, 64)
		var head *calibNode
		for i, v := range c.ints {
			m[v&1023] += i
			head = &calibNode{next: head, v: [3]int{v, i, v ^ i}}
			if i%32 == 0 {
				head = nil
			}
		}
		c.sink += len(m)
		if head != nil {
			c.sink += head.v[0]
		}
	}
	c.x = x
	return time.Since(start)
}

// samples takes n samples in a row.
func (c *calibrator) samples(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = c.sample()
	}
	return out
}

// speed turns calibration samples into the factor times are multiplied
// by: below 1 while the machine runs slower than the reference.
func speed(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 1
	}
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = float64(s)
	}
	return float64(calibNominal) / median(xs)
}
