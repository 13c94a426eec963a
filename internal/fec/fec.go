// Package fec models the forward-error-correction layer that the paper's
// link model makes an integral part of the transmission medium (assumptions
// 4–5): laser intersatellite links run a codec below the DLC, and the DLC
// sees only the *residual* error process the codec fails to correct.
//
// The paper cites a convolutional codec with interleaving [10] delivering a
// residual BER of 1e-7; building that exact codec is unnecessary (and its
// details are not in the paper), so this package substitutes the closest
// synthetic equivalent that exercises the same code path:
//
//   - Hamming(7,4) single-error-correcting block code for I-frames,
//   - a triple-redundancy repetition code for control frames (assumption 4:
//     "another more powerful FEC is used to transmit control frames"),
//   - closed-form residual-error algebra used by the analysis and by the
//     channel model to derive P_F and P_C from a raw channel BER.
//
// The interleaving of [10] is assumed, not built: a BER here is the
// post-interleaving rate, at which bursts reach the code as near-random
// errors. The DLC needs only the residual P_F/P_C split, so no payload is
// ever encoded; one bit-level Hamming(7,4) codec (hamming.go) stays as the
// Monte-Carlo check on the closed forms.
package fec

import (
	"fmt"
	"math"

	"repro/internal/spec"
)

// Scheme describes an error-correcting code by its combinatorial parameters,
// sufficient for residual-error-rate computation.
type Scheme struct {
	// Name identifies the scheme in reports.
	Name string
	// N and K are the block length and data length in bits.
	N, K int
	// T is the number of bit errors per block the code corrects.
	T int
}

// Overhead returns the expansion factor N/K applied to transmitted data.
func (s Scheme) Overhead() float64 {
	if s.K == 0 {
		return 1
	}
	return float64(s.N) / float64(s.K)
}

// BlockErrorProb returns the probability that a block of N code bits with
// independent bit error rate ber contains more than T errors, i.e. is
// uncorrectable.
func (s Scheme) BlockErrorProb(ber float64) float64 {
	if ber <= 0 {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	// 1 - sum_{i=0..T} C(N,i) ber^i (1-ber)^(N-i), computed in log space
	// for numerical stability at small ber.
	var ok float64
	for i := 0; i <= s.T && i <= s.N; i++ {
		ok += math.Exp(logChoose(s.N, i) +
			float64(i)*math.Log(ber) +
			float64(s.N-i)*math.Log1p(-ber))
	}
	if ok > 1 {
		ok = 1
	}
	return 1 - ok
}

// FrameErrorProb returns the probability that a frame of frameBits data bits,
// segmented into ceil(frameBits/K) blocks, is received in error: at least
// one uncorrectable block.
func (s Scheme) FrameErrorProb(ber float64, frameBits int) float64 {
	if frameBits <= 0 {
		return 0
	}
	blocks := (frameBits + s.K - 1) / s.K
	pb := s.BlockErrorProb(ber)
	// 1 - (1-pb)^blocks, stable for small pb.
	return -math.Expm1(float64(blocks) * math.Log1p(-pb))
}

// Uncoded is the no-FEC scheme: every bit error corrupts the frame.
var Uncoded = Scheme{Name: "uncoded", N: 1, K: 1, T: 0}

// Hamming74 is the single-error-correcting Hamming(7,4) code used for
// I-frames.
var Hamming74 = Scheme{Name: "hamming(7,4)", N: 7, K: 4, T: 1}

// Repetition3 is the rate-1/3 repetition code used for control frames: the
// "more powerful FEC" of link-model assumption 4. Majority vote corrects any
// single error per 3-bit group.
var Repetition3 = Scheme{Name: "repetition-3", N: 3, K: 1, T: 1}

// schemes resolves the flag/spec spelling of each scheme. Canonical names are
// the short ones the channel-model spec grammar uses ("fec=hamming74"); the
// Scheme.Name display strings are accepted as aliases so a spec can
// round-trip a rendered model description.
var schemes = spec.NewTable[Scheme]("scheme")

func init() {
	schemes.Add("none", []string{Uncoded.Name}, Uncoded)
	schemes.Add("hamming74", []string{Hamming74.Name}, Hamming74)
	schemes.Add("rep3", []string{Repetition3.Name, "repetition3"}, Repetition3)
}

// Names returns the canonical scheme names, sorted — the list an unknown
// name error shows.
func Names() []string { return schemes.Names() }

// Named resolves a scheme by name (canonical or alias, case insensitive).
// Unknown names error, listing what exists — no silent default: the
// hardcoded per-CLI fallbacks this replaces were exactly the bug.
func Named(name string) (Scheme, error) {
	s, err := schemes.Lookup(name)
	if err != nil {
		return Scheme{}, fmt.Errorf("fec: %w", err)
	}
	return s, nil
}

// logChoose returns ln C(n, k).
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1)
}

func lgamma(x int) float64 {
	v, _ := math.Lgamma(float64(x))
	return v
}
