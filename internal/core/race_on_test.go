//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; it slows
// the simulation about tenfold and pads every allocation, so the largest
// footprint case skips under it.
const raceEnabled = true
