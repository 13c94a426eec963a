package sim

import "math"

// RNG is a small, fast, seedable pseudo-random generator (xoshiro256**).
// Every stochastic component of the simulator draws from an explicitly
// injected *RNG, never from global state, so a run is a pure function of its
// configuration and seed.
//
// The zero RNG is not valid; construct one with NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, the
// recommended seeding procedure for the xoshiro family. Any seed, including
// zero, yields a well-mixed state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

// Split derives an independent generator from r. Sub-components (e.g. the
// two directions of a full-duplex link) each get their own stream so that
// adding randomness consumption in one place does not perturb the other.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// DeriveSeed maps a base seed and a point index to a statistically
// independent stream seed using the SplitMix64 finalizer — the same
// construction NewRNG uses to expand one seed into xoshiro state. Deriving
// from (base, i) rather than handing out seeds from a shared counter keeps
// seed assignment independent of scheduling order, which is what lets a
// sharded or worker-parallel run reproduce the serial one bit for bit.
func DeriveSeed(base uint64, i int) uint64 {
	z := base + (uint64(i)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15 // xoshiro must not be seeded all-zero
	}
	return z
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Bernoulli returns true with probability p. Probabilities outside [0,1]
// clamp to always-false / always-true.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	// Guard against log(0).
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// ExpDuration returns an exponentially distributed duration with the given
// mean, floored at zero.
func (r *RNG) ExpDuration(mean Duration) Duration {
	return Duration(r.Exp(float64(mean)))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
