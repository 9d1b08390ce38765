//go:build !race

package core

// raceEnabled reports a build with the race detector, under which freeing
// a pooled request twice panics.
const raceEnabled = false
