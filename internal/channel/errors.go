// Package channel simulates the point-to-point laser intersatellite link the
// paper's protocols run over: a full-duplex pair of directed pipes, each with
// a finite data rate (frames serialize onto the wire), a possibly
// time-varying propagation delay driven by orbital geometry, and an error
// process that can be memoryless (post-FEC random errors) or bursty (beam
// mispointing and tracking loss, §2.1).
//
// Per link-model assumption 9, corruption is detectable: the pipe marks the
// frame's Corrupted flag rather than flipping payload bits, and receivers
// must treat such frames exactly like a failed FCS check. Assumption 4 is
// honoured by letting each pipe apply a different error model to I-frames
// and control frames (control frames ride a more powerful FEC, so their
// per-frame error probability P_C is much lower than P_F).
package channel

import (
	"fmt"
	"math"

	"repro/internal/fec"
	"repro/internal/sim"
)

// ErrorModel decides the fate of each frame occupying [start, end) on the
// wire. Implementations may keep state (burst processes advance an internal
// clock) but must be used by a single pipe.
type ErrorModel interface {
	// Corrupt reports whether a frame of the given length in bits,
	// occupying [start, end) of wire time, arrives corrupted.
	Corrupt(rng *sim.RNG, start, end sim.Time, bits int) bool
}

// AnalyticModel is the capability interface for models whose behavior is a
// single closed-form per-frame error probability — the quantity the paper's
// Section 4 analysis is parameterized by. Only models for which that number
// is exact implement it (Perfect, FixedProb); length-dependent, stateful,
// and trace-driven processes deliberately do not, and analytic consumers
// must render their absence (NaN) honestly instead of defaulting to 0 —
// the old bench.modelProb fallback made every non-fixed channel look
// error-free in the analytic columns.
type AnalyticModel interface {
	// MeanFrameErrorProb returns the per-frame corruption probability.
	MeanFrameErrorProb() float64
}

// Perfect is an error-free channel.
type Perfect struct{}

// Corrupt always reports false.
func (Perfect) Corrupt(*sim.RNG, sim.Time, sim.Time, int) bool { return false }

// MeanFrameErrorProb is 0: no frame is ever corrupted.
func (Perfect) MeanFrameErrorProb() float64 { return 0 }

// FixedProb corrupts each frame independently with probability P, regardless
// of length. It is the model the validation experiments use, because the
// paper's analysis is parameterized directly by the frame error
// probabilities P_F and P_C.
type FixedProb struct {
	P float64
}

// Corrupt flips a biased coin.
func (m FixedProb) Corrupt(rng *sim.RNG, _, _ sim.Time, _ int) bool {
	return rng.Bernoulli(m.P)
}

// MeanFrameErrorProb is P, exactly.
func (m FixedProb) MeanFrameErrorProb() float64 { return m.P }

// fepCache memoizes fec.Scheme.FrameErrorProb per error model. A run uses
// only a handful of (BER, frame-length) pairs — I-frames are fixed-size,
// control frames come in two or three lengths — yet the closed form costs a
// Log1p and an Expm1 per frame. The cache is a linear-scanned fixed array:
// at these sizes that beats a map, and when it fills (it never does in
// practice) extra pairs simply fall through to the computation, so cached
// and uncached paths return bit-identical probabilities either way.
//
// Models embedding a fepCache key it by (BER, bits) only, so their Scheme
// field must not change once frames start flowing.
type fepCache struct {
	n    int
	keys [16]fepKey
	vals [16]float64
}

type fepKey struct {
	ber  float64
	bits int
}

func (c *fepCache) prob(s fec.Scheme, ber float64, bits int) float64 {
	k := fepKey{ber, bits}
	for i := 0; i < c.n; i++ {
		if c.keys[i] == k {
			return c.vals[i]
		}
	}
	if s.N == 0 {
		s = fec.Uncoded
	}
	p := s.FrameErrorProb(ber, bits)
	if c.n < len(c.keys) {
		c.keys[c.n] = k
		c.vals[c.n] = p
		c.n++
	}
	return p
}

// BSC is a binary symmetric channel seen through an FEC scheme: bit errors
// occur independently at rate BER, and the frame is corrupted if any FEC
// block is uncorrectable. With Scheme zero-valued, fec.Uncoded is assumed.
type BSC struct {
	BER    float64
	Scheme fec.Scheme

	cache fepCache
}

// Corrupt evaluates the residual frame error probability for this length.
func (m *BSC) Corrupt(rng *sim.RNG, _, _ sim.Time, bits int) bool {
	return rng.Bernoulli(m.cache.prob(m.Scheme, m.BER, bits))
}

// GilbertElliott is the classic two-state burst error model: a Good state
// with low BER and a Bad state (burst) with high BER, with exponentially
// distributed sojourn times. It reproduces the tracking-loss bursts of the
// laser channel (§2.1) with tunable mean burst length.
type GilbertElliott struct {
	GoodBER, BadBER   float64
	MeanGood, MeanBad sim.Duration
	Scheme            fec.Scheme

	// lazily evolved state
	init       bool
	inBad      bool
	stateUntil sim.Time

	cache fepCache
}

// NewGilbertElliott returns a model starting in the Good state.
func NewGilbertElliott(goodBER, badBER float64, meanGood, meanBad sim.Duration, scheme fec.Scheme) *GilbertElliott {
	if meanGood <= 0 || meanBad <= 0 {
		panic("channel: non-positive Gilbert-Elliott sojourn")
	}
	return &GilbertElliott{
		GoodBER: goodBER, BadBER: badBER,
		MeanGood: meanGood, MeanBad: meanBad,
		Scheme: scheme,
	}
}

// Corrupt advances the state process to the frame interval and corrupts the
// frame with the BER of the worst state it overlaps.
func (m *GilbertElliott) Corrupt(rng *sim.RNG, start, end sim.Time, bits int) bool {
	if !m.init {
		m.init = true
		m.stateUntil = sim.Time(rng.ExpDuration(m.MeanGood))
	}
	// Advance through sojourns until the state interval covers `start`,
	// noting whether any bad interval overlaps [start, end).
	overlapsBad := false
	for m.stateUntil < end {
		if m.inBad && m.stateUntil > start {
			overlapsBad = true
		}
		m.inBad = !m.inBad
		mean := m.MeanGood
		if m.inBad {
			mean = m.MeanBad
		}
		soj := rng.ExpDuration(mean)
		if soj <= 0 {
			soj = sim.Nanosecond
		}
		m.stateUntil = m.stateUntil.Add(soj)
	}
	if m.inBad {
		overlapsBad = true
	}
	ber := m.GoodBER
	if overlapsBad {
		ber = m.BadBER
	}
	return rng.Bernoulli(m.cache.prob(m.Scheme, ber, bits))
}

// BurstTrain is a deterministic burst process: the channel is destroyed for
// BurstLen every Period (bursts at [k*Period, k*Period+BurstLen)), and
// behaves as a BSC with BaseBER otherwise. Experiment E7 uses it to place
// the burst length exactly relative to C_depth*W_cp.
type BurstTrain struct {
	Period   sim.Duration
	BurstLen sim.Duration
	Offset   sim.Duration
	BaseBER  float64
	Scheme   fec.Scheme

	cache fepCache
}

// Corrupt destroys frames overlapping a burst and otherwise applies the
// base BSC.
func (m *BurstTrain) Corrupt(rng *sim.RNG, start, end sim.Time, bits int) bool {
	if m.Period <= 0 {
		panic("channel: BurstTrain with non-positive period")
	}
	if m.BurstLen > 0 && overlapsTrain(start, end, m.Offset, m.Period, m.BurstLen) {
		return true
	}
	return rng.Bernoulli(m.cache.prob(m.Scheme, m.BaseBER, bits))
}

// overlapsTrain reports whether [start, end) intersects any interval
// [offset+k*period, offset+k*period+burst).
func overlapsTrain(start, end sim.Time, offset, period, burst sim.Duration) bool {
	if end <= start {
		end = start + 1
	}
	rel := int64(start) - int64(offset)
	k := int64(math.Floor(float64(rel) / float64(period)))
	for ; ; k++ {
		bs := int64(offset) + k*int64(period)
		if bs >= int64(end) {
			return false
		}
		be := bs + int64(burst)
		if be > int64(start) && bs < int64(end) {
			return true
		}
	}
}

// String summaries for experiment logs.
func (m FixedProb) String() string { return fmt.Sprintf("fixed(p=%g)", m.P) }

func (m *BSC) String() string { return fmt.Sprintf("bsc(ber=%g,%s)", m.BER, schemeName(m.Scheme)) }

func (m *GilbertElliott) String() string {
	return fmt.Sprintf("gilbert-elliott(good=%g,bad=%g,burst=%v)", m.GoodBER, m.BadBER, m.MeanBad)
}

func (m *BurstTrain) String() string {
	return fmt.Sprintf("burst-train(period=%v,len=%v,ber=%g)", m.Period, m.BurstLen, m.BaseBER)
}

func schemeName(s fec.Scheme) string {
	if s.N == 0 {
		return fec.Uncoded.Name
	}
	return s.Name
}
