package fec

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestSchemeOverhead(t *testing.T) {
	if Uncoded.Overhead() != 1 {
		t.Fatalf("uncoded overhead = %v", Uncoded.Overhead())
	}
	if got := Hamming74.Overhead(); got != 1.75 {
		t.Fatalf("hamming overhead = %v, want 1.75", got)
	}
	if got := Repetition3.Overhead(); got != 3 {
		t.Fatalf("repetition overhead = %v, want 3", got)
	}
	if (Scheme{K: 0, N: 5}).Overhead() != 1 {
		t.Fatal("zero-K overhead should be 1")
	}
}

func TestBlockErrorProbEdges(t *testing.T) {
	for _, s := range []Scheme{Uncoded, Hamming74, Repetition3} {
		if p := s.BlockErrorProb(0); p != 0 {
			t.Fatalf("%s: P(0) = %v", s.Name, p)
		}
		if p := s.BlockErrorProb(1); p != 1 {
			t.Fatalf("%s: P(1) = %v", s.Name, p)
		}
		if p := s.BlockErrorProb(-0.5); p != 0 {
			t.Fatalf("%s: P(-) = %v", s.Name, p)
		}
	}
}

func TestBlockErrorProbHamming(t *testing.T) {
	// For Hamming(7,4) at BER p, uncorrectable = P(>=2 errors in 7 bits).
	p := 1e-3
	want := 0.0
	for i := 2; i <= 7; i++ {
		want += math.Exp(logChoose(7, i)) * math.Pow(p, float64(i)) * math.Pow(1-p, float64(7-i))
	}
	got := Hamming74.BlockErrorProb(p)
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("BlockErrorProb = %v, want %v", got, want)
	}
}

func TestCodingGain(t *testing.T) {
	// At small BER the coded schemes must beat uncoded by orders of
	// magnitude; this is the premise of assumption 4 (control frames on a
	// stronger code have much lower P_C).
	ber := 1e-5
	bits := 8192
	pUn := Uncoded.FrameErrorProb(ber, bits)
	pH := Hamming74.FrameErrorProb(ber, bits)
	pR := Repetition3.FrameErrorProb(ber, bits)
	if !(pH < pUn/10) {
		t.Fatalf("hamming gain too small: %v vs %v", pH, pUn)
	}
	if !(pR < pH) {
		t.Fatalf("repetition should beat hamming at this BER: %v vs %v", pR, pH)
	}
}

func TestFrameErrorProbMonotone(t *testing.T) {
	prev := 0.0
	for _, ber := range []float64{1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3} {
		p := Hamming74.FrameErrorProb(ber, 8192)
		if p < prev {
			t.Fatalf("frame error prob not monotone in BER: %v after %v", p, prev)
		}
		prev = p
	}
	prev = 0.0
	for _, bits := range []int{64, 512, 4096, 32768} {
		p := Hamming74.FrameErrorProb(1e-5, bits)
		if p < prev {
			t.Fatalf("frame error prob not monotone in size")
		}
		prev = p
	}
	if Hamming74.FrameErrorProb(1e-5, 0) != 0 {
		t.Fatal("zero-size frame should never error")
	}
}

// TestFrameErrorProbUncodedMatchesScheme checks the uncoded scheme against
// the closed form 1-(1-ber)^bits, the P_F/P_C the paper's analysis uses.
func TestFrameErrorProbUncodedMatchesScheme(t *testing.T) {
	for _, ber := range []float64{0, 1e-7, 1e-4, 0.5, 1} {
		for _, bits := range []int{1, 100, 10000} {
			a := 1.0
			if ber < 1 {
				a = -math.Expm1(float64(bits) * math.Log1p(-ber))
			}
			b := Uncoded.FrameErrorProb(ber, bits)
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("ber=%v bits=%d: %v vs %v", ber, bits, a, b)
			}
		}
	}
}

func TestHammingRoundTripClean(t *testing.T) {
	for d := byte(0); d < 16; d++ {
		cw := hammingEncodeNibble(d)
		if cw > 0x7F {
			t.Fatalf("nibble %x: codeword %#x wider than 7 bits", d, cw)
		}
		if got, corrected := hammingDecodeWord(cw); got != d || corrected {
			t.Fatalf("nibble %x: clean decode = %x (corrected %v)", d, got, corrected)
		}
	}
}

func TestHammingCorrectsSingleBitPerWord(t *testing.T) {
	for d := byte(0); d < 16; d++ {
		for bit := 0; bit < 7; bit++ {
			if got, corrected := hammingDecodeWord(hammingEncodeNibble(d) ^ 1<<bit); got != d || !corrected {
				t.Fatalf("nibble %x, bit %d flipped: decode = %x (corrected %v)", d, bit, got, corrected)
			}
		}
	}
}

func TestEmpiricalHammingResidualMatchesAlgebra(t *testing.T) {
	// Monte-Carlo check: corrupt encoded bits at BER p, decode, and compare
	// the fraction of wrong codewords with Scheme.BlockErrorProb (decoded
	// errors include miscorrections, so compare against that upper bound's
	// order of magnitude).
	rng := sim.NewRNG(4242)
	const p = 0.01
	const words = 200000
	bad := 0
	for w := 0; w < words; w++ {
		nibble := byte(rng.Intn(16))
		cw := hammingEncodeNibble(nibble)
		for bit := 0; bit < 7; bit++ {
			if rng.Bernoulli(p) {
				cw ^= 1 << bit
			}
		}
		got, _ := hammingDecodeWord(cw & 0x7F)
		if got != nibble {
			bad++
		}
	}
	empirical := float64(bad) / words
	predicted := Hamming74.BlockErrorProb(p)
	if empirical < predicted/2 || empirical > predicted*2 {
		t.Fatalf("empirical word error %v vs predicted %v", empirical, predicted)
	}
}

func BenchmarkFrameErrorProb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Hamming74.FrameErrorProb(1e-6, 8192)
	}
}

// TestNamed: every spelling resolves (canonical, display-name alias, any
// case), Names() is the table's own canonical list, and an unknown name
// errors listing it.
func TestNamed(t *testing.T) {
	for name, want := range map[string]Scheme{
		"none": Uncoded, "uncoded": Uncoded, "hamming74": Hamming74, "Hamming(7,4)": Hamming74,
		"rep3": Repetition3, "repetition-3": Repetition3, "repetition3": Repetition3, " REP3 ": Repetition3,
	} {
		if got, err := Named(name); err != nil || got != want {
			t.Errorf("Named(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	names := Names()
	if len(names) != 3 {
		t.Fatalf("Names() = %v, want the three canonical names", names)
	}
	for _, name := range names {
		if _, err := Named(name); err != nil {
			t.Errorf("Names() lists %q, which Named rejects: %v", name, err)
		}
	}
	_, err := Named("turbo")
	if want := `fec: unknown scheme "turbo" (registered: hamming74, none, rep3)`; err == nil || err.Error() != want {
		t.Fatalf("unknown-scheme error = %v, want %s", err, want)
	}
}
