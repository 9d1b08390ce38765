package bench

import "time"

// stopwatch measures host wall-clock time for the command rates tests
// compare (pipelined beats sync, recovery overhead is bounded). Every
// figure and table the harness prints is computed from virtual time; wall
// time is never printed and never feeds a result. Concentrating the clock reads here keeps the rest of the
// package clean under haoclvet's determinism check, and makes any new
// wall-clock dependency show up as a diff in this file.
type stopwatch struct{ start time.Time }

// startStopwatch begins timing.
func startStopwatch() stopwatch {
	//lint:ignore haoclvet/vtimedet wall time is test telemetry, never simulation input
	return stopwatch{start: time.Now()}
}

// elapsed reports the wall time since the stopwatch started.
func (s stopwatch) elapsed() time.Duration {
	//lint:ignore haoclvet/vtimedet wall time is test telemetry, never simulation input
	return time.Since(s.start)
}
