package crc

import (
	"hash/crc32"
	"testing"
	"testing/quick"
)

func TestFCS16KnownVectors(t *testing.T) {
	// Standard check value for CRC-16/X.25: "123456789" -> 0x906E.
	if got := FCS16([]byte("123456789")); got != 0x906E {
		t.Fatalf("FCS16(check) = %#04x, want 0x906e", got)
	}
	// Empty input: init ^ final = 0xFFFF ^ 0xFFFF ... compute stable value.
	if got := FCS16(nil); got != 0x0000 {
		t.Fatalf("FCS16(nil) = %#04x, want 0x0000", got)
	}
}

func TestSum32MatchesStdlib(t *testing.T) {
	inputs := [][]byte{
		nil,
		{0},
		[]byte("123456789"),
		[]byte("The LAMS-DLC ARQ Protocol"),
		make([]byte, 4096),
	}
	for _, in := range inputs {
		if got, want := Sum32(in), crc32.ChecksumIEEE(in); got != want {
			t.Fatalf("Sum32(%q...) = %#08x, want %#08x", truncate(in), got, want)
		}
	}
}

// sum32Bytewise is the test oracle for Sum32: the textbook one-byte-at-a-time
// table loop over the reflected IEEE 802.3 polynomial, built here so that it
// shares nothing with hash/crc32.
func sum32Bytewise(data []byte) uint32 {
	crc := uint32(0xFFFFFFFF)
	for _, b := range data {
		crc = (crc >> 8) ^ ieeeTable[byte(crc)^b]
	}
	return crc ^ 0xFFFFFFFF
}

var ieeeTable = func() (t [256]uint32) {
	for i := range t {
		crc := uint32(i)
		for b := 0; b < 8; b++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ 0xEDB88320
			} else {
				crc >>= 1
			}
		}
		t[i] = crc
	}
	return t
}()

func TestSum32MatchesBytewise(t *testing.T) {
	// The standard check value of CRC-32/IEEE.
	if got := Sum32([]byte("123456789")); got != 0xCBF43926 {
		t.Fatalf("Sum32(check) = %#08x, want 0xcbf43926", got)
	}
	if got := sum32Bytewise([]byte("123456789")); got != 0xCBF43926 {
		t.Fatalf("oracle(check) = %#08x, want 0xcbf43926", got)
	}
	// Every short length at every alignment within a 16-byte line: the
	// vectorised implementation switches code paths on both.
	big := make([]byte, 1<<20+16)
	x := uint32(2463534242)
	for i := range big {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		big[i] = byte(x)
	}
	for off := 0; off < 16; off++ {
		for n := 0; n <= 64; n++ {
			in := big[off : off+n]
			if got, want := Sum32(in), sum32Bytewise(in); got != want {
				t.Fatalf("Sum32 off=%d len=%d: %#08x, oracle %#08x", off, n, got, want)
			}
		}
	}
	for _, off := range []int{0, 1, 7} {
		in := big[off : off+1<<20]
		if got, want := Sum32(in), sum32Bytewise(in); got != want {
			t.Fatalf("Sum32 off=%d len=1MiB: %#08x, oracle %#08x", off, got, want)
		}
	}
}

func truncate(b []byte) []byte {
	if len(b) > 16 {
		return b[:16]
	}
	return b
}

func TestCheckHelpers(t *testing.T) {
	data := []byte("hello, satellite")
	if !CheckFCS16(data, FCS16(data)) {
		t.Fatal("CheckFCS16 rejected correct sum")
	}
	if CheckFCS16(data, FCS16(data)^1) {
		t.Fatal("CheckFCS16 accepted wrong sum")
	}
	if !CheckSum32(data, Sum32(data)) {
		t.Fatal("CheckSum32 rejected correct sum")
	}
	if CheckSum32(data, Sum32(data)^1) {
		t.Fatal("CheckSum32 accepted wrong sum")
	}
}

func TestFCS16DetectsSingleBitErrors(t *testing.T) {
	// CRC-16 must detect every single-bit error.
	data := []byte("frame body for error detection test")
	sum := FCS16(data)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			data[i] ^= 1 << bit
			if FCS16(data) == sum {
				t.Fatalf("single-bit flip at byte %d bit %d undetected", i, bit)
			}
			data[i] ^= 1 << bit
		}
	}
}

func TestSum32DetectsSingleBitErrors(t *testing.T) {
	data := []byte("another frame body, this one checked with crc32")
	sum := Sum32(data)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			data[i] ^= 1 << bit
			if Sum32(data) == sum {
				t.Fatalf("single-bit flip at byte %d bit %d undetected", i, bit)
			}
			data[i] ^= 1 << bit
		}
	}
}

func TestFCS16DetectsBurstsUpTo16Bits(t *testing.T) {
	// Any error burst of length <= 16 bits must be detected by CRC-16.
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i * 37)
	}
	sum := FCS16(data)
	for start := 0; start < len(data)*8-16; start += 5 {
		for blen := 1; blen <= 16; blen++ {
			mutated := append([]byte(nil), data...)
			// Flip first and last bit of the burst (worst cases are
			// covered by polynomial theory; we spot-check patterns).
			flip := func(bitpos int) {
				mutated[bitpos/8] ^= 1 << (bitpos % 8)
			}
			flip(start)
			if blen > 1 {
				flip(start + blen - 1)
			}
			if FCS16(mutated) == sum {
				t.Fatalf("burst start=%d len=%d undetected", start, blen)
			}
		}
	}
}

func TestFCS16Property(t *testing.T) {
	// Property: appending data changes the checksum deterministically and
	// equal inputs give equal sums.
	f := func(a []byte) bool {
		return FCS16(a) == FCS16(append([]byte(nil), a...))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlicingMatchesBytewise(t *testing.T) {
	// The slicing-by-8 loops must compute exactly the bytewise function
	// for every length (tails shorter than a full 8-byte step included)
	// and for arbitrary content.
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i*131 + 17)
	}
	for n := 0; n <= len(data); n++ {
		if got, want := FCS16(data[:n]), fcs16Bytewise(data[:n]); got != want {
			t.Fatalf("FCS16 len=%d: slicing %#04x != bytewise %#04x", n, got, want)
		}
		if got, want := Sum32(data[:n]), sum32Bytewise(data[:n]); got != want {
			t.Fatalf("Sum32 len=%d: %#08x != bytewise %#08x", n, got, want)
		}
	}
	f := func(a []byte) bool {
		return FCS16(a) == fcs16Bytewise(a) && Sum32(a) == sum32Bytewise(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// benchSink keeps the checksum calls observable so the compiler cannot
// eliminate the loop body.
var benchSink uint32

func BenchmarkFCS16_1K(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		benchSink += uint32(FCS16(data))
	}
}

func BenchmarkSum32_4K(b *testing.B) {
	data := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		benchSink += Sum32(data)
	}
}

func BenchmarkFCS16Bytewise_1K(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		benchSink += uint32(fcs16Bytewise(data))
	}
}

func BenchmarkSum32Bytewise_4K(b *testing.B) {
	data := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		benchSink += sum32Bytewise(data)
	}
}
