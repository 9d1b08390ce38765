//go:build race

package node

// raceEnabled reports a build with the race detector, under which
// recycling a pooled command twice panics.
const raceEnabled = true
