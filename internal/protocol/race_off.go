//go:build !race

package protocol

// raceEnabled reports a build with the race detector, under which Buf.Free
// poisons what it frees.
const raceEnabled = false
