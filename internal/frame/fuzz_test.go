package frame

import (
	"bytes"
	"testing"
)

// FuzzDecode drives the codec with arbitrary bytes: it must never panic,
// never claim to consume more bytes than offered, and any frame it accepts
// must re-encode to exactly the bytes it consumed (checksum included).
func FuzzDecode(f *testing.F) {
	for _, fr := range []*Frame{
		NewI(17, 3, []byte("payload")),
		NewCheckpoint(9, 18, []uint32{4, 11}, true, false),
		NewRequestNAK(42),
		{Kind: KindHDLCI, Seq: 5, Ack: 3, Payload: []byte("h"), Final: true},
		{Kind: KindRR, Ack: 8},
		{Kind: KindSREJ, Ack: 9, Seq: 6},
	} {
		buf, err := fr.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xFF, 0x00, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re, eerr := fr.Encode()
		if eerr != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", eerr)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encoding differs from consumed bytes:\n in  %x\n out %x", data[:n], re)
		}
	})
}

// FuzzDecodeReuse checks the gopacket-style reuse path: decoding into a
// dirty Frame must fully reset it.
func FuzzDecodeReuse(f *testing.F) {
	clean, err := NewI(1, 2, []byte("x")).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean, clean)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var fr Frame
		na, ea := fr.DecodeFrom(a)
		snapshotA := clone(&fr)
		nb, eb := fr.DecodeFrom(b)
		var fresh Frame
		nf, ef := fresh.DecodeFrom(b)
		if (eb == nil) != (ef == nil) || nb != nf {
			t.Fatalf("reuse changed outcome: (%v,%v) vs (%v,%v)", nb, eb, nf, ef)
		}
		if eb == nil && !framesEqualFuzz(&fr, &fresh) {
			t.Fatal("dirty-frame decode differs from fresh decode")
		}
		_ = na
		_ = ea
		_ = snapshotA
	})
}

func framesEqualFuzz(a, b *Frame) bool {
	if a.Kind != b.Kind || a.Seq != b.Seq || a.Ack != b.Ack || a.Serial != b.Serial ||
		a.StopGo != b.StopGo || a.Enforced != b.Enforced || a.Final != b.Final ||
		a.DatagramID != b.DatagramID || !bytes.Equal(a.Payload, b.Payload) {
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
