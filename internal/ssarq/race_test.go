//go:build race

package ssarq

// raceEnabled reports whether the race detector is compiled in. The
// zero-alloc pin skips under it: sync.Pool deliberately drops items at
// random when racing, so a pool Get can allocate even in steady state.
const raceEnabled = true
