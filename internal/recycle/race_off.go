//go:build !race

package recycle

// Race reports a race-detector build: Pool panics on a second Put there,
// Holds on a Hold or Release past the last, and Poison writes.
const Race = false
