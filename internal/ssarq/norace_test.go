//go:build !race

package ssarq

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
