package frame

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func sampleFrames() []*Frame {
	return []*Frame{
		NewI(0, 0, nil),
		NewI(17, 3, []byte("hello")),
		NewI(1<<31, 1<<60, bytes.Repeat([]byte{0xAB}, 4096)),
		NewCheckpoint(9, 17, nil, false, false),
		NewCheckpoint(9, 17, []uint32{4, 11, 12}, true, false),
		NewCheckpoint(10, 20, []uint32{}, false, true), // Resolving command
		NewCheckpoint(11, 30, []uint32{1}, true, true), // Enforced-NAK with stop
		NewRequestNAK(42),
		{Kind: KindHDLCI, Seq: 5, Ack: 3, Payload: []byte("window"), Final: true},
		{Kind: KindRR, Ack: 8, Final: true},
		{Kind: KindREJ, Ack: 4, Seq: 4},
		{Kind: KindSREJ, Ack: 9, Seq: 6},
	}
}

func framesEqual(a, b *Frame) bool {
	if a.Kind != b.Kind || a.Seq != b.Seq || a.Ack != b.Ack ||
		a.Serial != b.Serial || a.StopGo != b.StopGo ||
		a.Enforced != b.Enforced || a.Final != b.Final ||
		a.DatagramID != b.DatagramID || a.Corrupted != b.Corrupted {
		return false
	}
	if !bytes.Equal(a.Payload, b.Payload) {
		return false
	}
	if len(a.NAKs) != len(b.NAKs) {
		return false
	}
	for i := range a.NAKs {
		if a.NAKs[i] != b.NAKs[i] {
			return false
		}
	}
	return true
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		buf, err := f.Encode()
		if err != nil {
			t.Fatalf("%v: encode: %v", f, err)
		}
		if len(buf) != f.WireLen() {
			t.Fatalf("%v: encoded %d bytes, WireLen says %d", f, len(buf), f.WireLen())
		}
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("%v: decode: %v", f, err)
		}
		if n != len(buf) {
			t.Fatalf("%v: consumed %d of %d bytes", f, n, len(buf))
		}
		// Decode normalizes empty slices to nil; compare semantically.
		want := clone(f)
		if len(want.Payload) == 0 {
			want.Payload = nil
		}
		if len(want.NAKs) == 0 {
			want.NAKs = nil
		}
		if !framesEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestDecodeStream(t *testing.T) {
	// Multiple frames back-to-back decode sequentially.
	var buf []byte
	var err error
	frames := sampleFrames()
	for _, f := range frames {
		buf, err = f.AppendEncode(buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	var decoded int
	var f Frame
	for len(buf) > 0 {
		n, err := f.DecodeFrom(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", decoded, err)
		}
		if f.Kind != frames[decoded].Kind {
			t.Fatalf("frame %d: kind %v, want %v", decoded, f.Kind, frames[decoded].Kind)
		}
		buf = buf[n:]
		decoded++
	}
	if decoded != len(frames) {
		t.Fatalf("decoded %d frames, want %d", decoded, len(frames))
	}
}

func TestDecodeTruncated(t *testing.T) {
	for _, f := range sampleFrames() {
		buf, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := Decode(buf[:cut]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("%v cut at %d: err = %v, want ErrTruncated", f, cut, err)
			}
		}
	}
}

func TestDecodeDetectsBitFlips(t *testing.T) {
	for _, f := range sampleFrames() {
		buf, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			mutated := append([]byte(nil), buf...)
			mutated[i] ^= 0x40
			_, _, err := Decode(mutated)
			if err == nil {
				// A flip in the length field may shift framing but must
				// never yield a silently wrong frame of the same kind and
				// content.
				got, _, _ := Decode(mutated)
				if framesEqual(got, f) {
					t.Fatalf("%v: bit flip at byte %d undetected", f, i)
				}
				continue
			}
		}
	}
}

func TestEncodeCorruptedFails(t *testing.T) {
	f := NewI(1, 1, []byte("x"))
	f.Corrupted = true
	if _, err := f.Encode(); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("err = %v, want ErrCorrupted", err)
	}
}

func TestEncodeBadKind(t *testing.T) {
	f := &Frame{Kind: KindInvalid}
	if _, err := f.Encode(); !errors.Is(err, ErrBadKind) {
		t.Fatalf("err = %v, want ErrBadKind", err)
	}
	if _, _, err := Decode([]byte{0xEE, 0, 0, 0}); !errors.Is(err, ErrBadKind) {
		t.Fatalf("decode err = %v, want ErrBadKind", err)
	}
}

func TestOversizeLimits(t *testing.T) {
	f := NewI(1, 1, make([]byte, MaxPayload+1))
	if _, err := f.Encode(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized payload: err = %v", err)
	}
	cp := NewCheckpoint(1, 1, make([]uint32, MaxNAKs+1), false, false)
	if _, err := cp.Encode(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized NAK list: err = %v", err)
	}
}

// clone returns a deep copy of f that belongs to no list.
func clone(f *Frame) *Frame {
	g := *f
	g.home = nil
	g.Payload = slices.Clone(f.Payload)
	g.NAKs = slices.Clone(f.NAKs)
	return &g
}

func TestKindPredicates(t *testing.T) {
	if KindI.Control() || KindHDLCI.Control() {
		t.Fatal("information frames are not control frames")
	}
	if !KindCheckpoint.Control() || !KindRR.Control() {
		t.Fatal("control frames misclassified")
	}
	if Kind(200).String() != "Kind(200)" {
		t.Fatalf("unknown kind string: %q", Kind(200).String())
	}
}

func TestStringSummaries(t *testing.T) {
	cases := []struct {
		f    *Frame
		want string
	}{
		{NewI(17, 3, []byte("hello")), "I seq=17"},
		{NewCheckpoint(9, 17, []uint32{4}, true, false), "CP serial=9"},
		{NewCheckpoint(9, 17, nil, false, true), "CP*"},
		{NewRequestNAK(42), "REQNAK serial=42"},
		{&Frame{Kind: KindSREJ, Ack: 9, Seq: 6}, "SREJ"},
	}
	for _, c := range cases {
		if got := c.f.String(); !strings.Contains(got, c.want) {
			t.Errorf("String() = %q, want substring %q", got, c.want)
		}
	}
	corrupt := NewI(1, 1, nil)
	corrupt.Corrupted = true
	if !strings.Contains(corrupt.String(), "corrupted") {
		t.Error("corrupted marker missing")
	}
	stop := NewCheckpoint(1, 1, nil, true, false)
	if !strings.Contains(stop.String(), "stop") {
		t.Error("stop marker missing")
	}
}

func TestWireLenControlVsInfo(t *testing.T) {
	// Control frames must be much shorter than a typical I-frame: the
	// analysis depends on t_c << t_f.
	ifr := NewI(1, 1, make([]byte, 1024))
	cp := NewCheckpoint(1, 1, []uint32{1, 2, 3}, false, false)
	if cp.WireLen() >= ifr.WireLen()/4 {
		t.Fatalf("control frame too large: %d vs %d", cp.WireLen(), ifr.WireLen())
	}
	if (&Frame{Kind: KindInvalid}).WireLen() != 0 {
		t.Fatal("invalid frame should have zero wire length")
	}
	if (&Frame{Kind: KindInvalid}).Bits() != 0 {
		t.Fatal("Bits of invalid frame")
	}
	if got := NewRequestNAK(1).Bits(); got != NewRequestNAK(1).WireLen()*8 {
		t.Fatalf("Bits = %d", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	type iSpec struct {
		Seq     uint32
		DgID    uint64
		Payload []byte
	}
	f := func(spec iSpec) bool {
		if len(spec.Payload) > MaxPayload {
			spec.Payload = spec.Payload[:MaxPayload]
		}
		fr := NewI(spec.Seq, spec.DgID, spec.Payload)
		buf, err := fr.Encode()
		if err != nil {
			return false
		}
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return got.Seq == spec.Seq && got.DatagramID == spec.DgID &&
			bytes.Equal(got.Payload, spec.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundTripProperty(t *testing.T) {
	f := func(serial, ack uint32, naks []uint32, stop, enforced bool) bool {
		if len(naks) > MaxNAKs {
			naks = naks[:MaxNAKs]
		}
		fr := NewCheckpoint(serial, ack, naks, stop, enforced)
		buf, err := fr.Encode()
		if err != nil {
			return false
		}
		got, _, err := Decode(buf)
		if err != nil {
			return false
		}
		if got.Serial != serial || got.Ack != ack ||
			got.StopGo != stop || got.Enforced != enforced {
			return false
		}
		if len(got.NAKs) != len(naks) {
			return false
		}
		for i := range naks {
			if got.NAKs[i] != naks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeI1K(b *testing.B) {
	f := NewI(17, 3, make([]byte, 1024))
	buf := make([]byte, 0, f.WireLen())
	b.SetBytes(int64(f.WireLen()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = f.AppendEncode(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeI1K(b *testing.B) {
	f := NewI(17, 3, make([]byte, 1024))
	buf, err := f.Encode()
	if err != nil {
		b.Fatal(err)
	}
	var g Frame
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.DecodeFrom(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeCheckpoint(b *testing.B) {
	f := NewCheckpoint(9, 1000, []uint32{1, 5, 9, 44, 902}, true, false)
	buf, err := f.Encode()
	if err != nil {
		b.Fatal(err)
	}
	var g Frame
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.DecodeFrom(buf); err != nil {
			b.Fatal(err)
		}
	}
}
