package live

import (
	"bytes"
	"testing"
)

// FuzzDeframer feeds arbitrary stream bytes through the deframer: it must
// never panic, and after arbitrary garbage a well-formed frame must still
// be extracted (self-synchronization).
func FuzzDeframer(f *testing.F) {
	f.Add([]byte{}, []byte("hello"))
	f.Add([]byte{flagByte, flagByte}, []byte{flagByte, escapeByte})
	f.Add([]byte{1, 2, 3}, []byte{0})
	// For the word-at-a-time kernels: garbage ending in a pending escape, a
	// flag in the last lane of a word, and specials on both sides of a word
	// boundary; payloads longer than two words with a special in the tail.
	f.Add([]byte{flagByte, 'x', escapeByte}, []byte{escapeByte ^ escapeXOR, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, flagByte, escapeByte, 9, 10}, []byte("0123456\x7e\x7d9abcdef0\x7d"))
	f.Add(bytes.Repeat([]byte{escapeByte}, 17), bytes.Repeat([]byte{flagByte, 0x41}, 12))
	f.Fuzz(func(t *testing.T, garbage, payload []byte) {
		if len(payload) == 0 || len(payload) > 4096 || len(garbage) > 4096 {
			return
		}
		// Whatever the bytes, the kernels behave as the bytewise loops do.
		both := feedBoth{t: t}
		both.feed(garbage, "garbage")
		both.feed(refAppendStuffed(nil, payload), "frame")
		var d Deframer
		// Garbage first: whatever it contains, ignore emissions and errors
		// (it may itself contain valid frames).
		_ = d.Feed(garbage, func([]byte) error { return nil })
		// A clean flag resynchronizes the stream even if the garbage ended
		// mid-frame or mid-escape, then the real frame must come through
		// intact as the last emission.
		var got [][]byte
		stream := AppendStuffed(nil, payload)
		if err := d.Feed(stream, func(fr []byte) error {
			got = append(got, append([]byte(nil), fr...))
			return nil
		}); err != nil {
			return // size-limit errors are legal outcomes for huge garbage
		}
		if len(got) == 0 {
			t.Fatalf("frame lost after %d bytes of garbage", len(garbage))
		}
		if !bytes.Equal(got[len(got)-1], payload) {
			t.Fatalf("frame corrupted after garbage: got %x want %x", got[len(got)-1], payload)
		}
	})
}

// FuzzStuffRoundTrip: stuffing then deframing must return the payload for
// any byte content.
func FuzzStuffRoundTrip(f *testing.F) {
	f.Add([]byte{flagByte, escapeByte, 0x00})
	// A special byte in every lane of a word, at the word boundary and in
	// the sub-word tail.
	f.Add([]byte("\x7e1234567\x7d"))
	f.Add([]byte("0123456\x7e\x7e\x7d"))
	f.Add(append(bytes.Repeat([]byte{0x7F, 0x7C, 0xFE, 0xFD}, 8), escapeByte, flagByte, escapeByte))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 || len(payload) > maxFrameSize/2 {
			return
		}
		if got, want := AppendStuffed(nil, payload), refAppendStuffed(nil, payload); !bytes.Equal(got, want) {
			t.Fatalf("stuffed %x, bytewise %x", got, want)
		}
		var d Deframer
		var got [][]byte
		if err := d.Feed(AppendStuffed(nil, payload), func(fr []byte) error {
			got = append(got, append([]byte(nil), fr...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !bytes.Equal(got[0], payload) {
			t.Fatalf("round trip failed for %d bytes", len(payload))
		}
	})
}
