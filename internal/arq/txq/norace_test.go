//go:build !race

package txq

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
