package live

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// refAppendStuffed and refDeframer are the byte-at-a-time stuffing loops the
// word-at-a-time kernels replaced, kept verbatim as the oracle: the wire
// format is whatever these produce and accept.
func refAppendStuffed(dst, payload []byte) []byte {
	dst = append(dst, flagByte)
	for _, b := range payload {
		if b == flagByte || b == escapeByte {
			dst = append(dst, escapeByte, b^escapeXOR)
			continue
		}
		dst = append(dst, b)
	}
	return append(dst, flagByte)
}

type refDeframer struct {
	buf     []byte
	escaped bool
	inFrame bool
}

func (d *refDeframer) Feed(data []byte, emit func(frame []byte) error) error {
	for _, b := range data {
		switch {
		case b == flagByte:
			if d.inFrame && len(d.buf) > 0 {
				frame := d.buf
				d.buf = d.buf[:0]
				d.escaped = false
				if err := emit(frame); err != nil {
					return err
				}
			}
			d.inFrame = true
			d.buf = d.buf[:0]
			d.escaped = false
		case !d.inFrame:
		case b == escapeByte:
			d.escaped = true
		default:
			if d.escaped {
				b ^= escapeXOR
				d.escaped = false
			}
			d.buf = append(d.buf, b)
			if len(d.buf) > maxFrameSize {
				d.buf = d.buf[:0]
				d.inFrame = false
				return ErrFrameTooLarge
			}
		}
	}
	return nil
}

// feedBoth pushes one chunk through both deframers and fails on any
// difference in what they emit, return, or remember.
type feedBoth struct {
	t   *testing.T
	got Deframer
	ref refDeframer
	// failAt, when positive, makes the failAt-th emission return errStop,
	// from both callbacks alike.
	failAt int
}

var errStop = errors.New("stop")

// feed returns the frames the chunk completed.
func (fb *feedBoth) feed(chunk []byte, what string) [][]byte {
	fb.t.Helper()
	collect := func(into *[][]byte) func([]byte) error {
		n := 0
		return func(fr []byte) error {
			*into = append(*into, append([]byte(nil), fr...))
			if n++; n == fb.failAt {
				return errStop
			}
			return nil
		}
	}
	var gotFrames, refFrames [][]byte
	gotErr := fb.got.Feed(chunk, collect(&gotFrames))
	refErr := fb.ref.Feed(chunk, collect(&refFrames))
	if gotErr != refErr {
		fb.t.Fatalf("%s: err %v, bytewise %v", what, gotErr, refErr)
	}
	if len(gotFrames) != len(refFrames) {
		fb.t.Fatalf("%s: %d frames, bytewise %d", what, len(gotFrames), len(refFrames))
	}
	for i := range gotFrames {
		if !bytes.Equal(gotFrames[i], refFrames[i]) {
			fb.t.Fatalf("%s: frame %d = %x, bytewise %x", what, i, gotFrames[i], refFrames[i])
		}
	}
	if fb.got.inFrame != fb.ref.inFrame || fb.got.escaped != fb.ref.escaped || !bytes.Equal(fb.got.buf, fb.ref.buf) {
		fb.t.Fatalf("%s: state (in=%v esc=%v buf=%x), bytewise (in=%v esc=%v buf=%x)", what,
			fb.got.inFrame, fb.got.escaped, fb.got.buf, fb.ref.inFrame, fb.ref.escaped, fb.ref.buf)
	}
	return gotFrames
}

// TestKernelsMatchBytewiseEveryByteEveryOffset plants every byte value at
// every offset 0–16 of a payload that starts at every alignment within a
// word, so the interesting byte meets the 8-byte loop, its boundary and the
// tail loop in every position; both directions must agree with the
// bytewise loops, and the stuffed stream must deframe the same whole, in two
// pieces cut at every point, and one byte at a time.
func TestKernelsMatchBytewiseEveryByteEveryOffset(t *testing.T) {
	backing := make([]byte, 64)
	for align := 0; align < 8; align++ {
		for off := 0; off <= 16; off++ {
			for v := 0; v < 256; v++ {
				payload := backing[align : align+17+align%3]
				for i := range payload {
					payload[i] = byte(0x10 + i)
				}
				payload[off] = byte(v)
				want := refAppendStuffed(nil, payload)
				if got := AppendStuffed(nil, payload); !bytes.Equal(got, want) {
					t.Fatalf("align %d off %d byte %#02x: stuffed %x, bytewise %x", align, off, v, got, want)
				}
				// Appending to a non-nil, non-empty dst must not disturb it.
				if got := AppendStuffed([]byte{0xAA}, payload); !bytes.Equal(got[1:], want) || got[0] != 0xAA {
					t.Fatalf("align %d off %d byte %#02x: append to dst gave %x", align, off, v, got)
				}
				whole := feedBoth{t: t}
				whole.feed(want, "whole")
				if v != flagByte && v != escapeByte && v != flagByte^escapeXOR && v != escapeByte^escapeXOR {
					continue // cutting is only interesting around the escape
				}
				for cut := 0; cut <= len(want); cut++ {
					two := feedBoth{t: t}
					two.feed(want[:cut], fmt.Sprintf("cut %d head", cut))
					two.feed(want[cut:], fmt.Sprintf("cut %d tail", cut))
				}
				single := feedBoth{t: t}
				for i := range want {
					single.feed(want[i:i+1], fmt.Sprintf("byte %d", i))
				}
			}
		}
	}
}

// TestDeframerMatchesBytewiseOnHostileStreams feeds streams dense in flags
// and escapes — doubled escapes, escaped flags, flags inside a word, garbage
// before the first flag — in random chunk sizes, with and without an emit
// callback that fails.
func TestDeframerMatchesBytewiseOnHostileStreams(t *testing.T) {
	rng := sim.NewRNG(12)
	alphabet := []byte{flagByte, escapeByte, flagByte ^ escapeXOR, escapeByte ^ escapeXOR, 0x00, 0x41, 0xFF}
	for round := 0; round < 400; round++ {
		stream := make([]byte, 1+rng.Uint64()%300)
		dense := round%2 == 0
		for i := range stream {
			if dense || rng.Uint64()%8 == 0 {
				stream[i] = alphabet[rng.Uint64()%uint64(len(alphabet))]
			} else {
				stream[i] = byte(rng.Uint64())
			}
		}
		fb := feedBoth{t: t, failAt: int(rng.Uint64() % 4)}
		for pos := 0; pos < len(stream); {
			n := 1 + int(rng.Uint64()%24)
			n = min(n, len(stream)-pos)
			fb.feed(stream[pos:pos+n], fmt.Sprintf("round %d at %d+%d", round, pos, n))
			pos += n
		}
	}
}

func TestDeframerEscapeSplitAcrossFeeds(t *testing.T) {
	// The escape byte is the last byte of one Feed and its partner the
	// first of the next; also an escape aborted by a flag and a doubled
	// escape across the boundary.
	for _, tc := range []struct {
		name       string
		head, tail []byte
		want       [][]byte
	}{
		{"partner", []byte{flagByte, 'a', escapeByte}, []byte{flagByte ^ escapeXOR, 'b', flagByte}, [][]byte{{'a', flagByte, 'b'}}},
		{"aborted", []byte{flagByte, 'a', escapeByte}, []byte{flagByte, 'b', flagByte}, [][]byte{{'a'}, {'b'}}},
		{"doubled", []byte{flagByte, 'a', escapeByte}, []byte{escapeByte, 0x5D, flagByte}, [][]byte{{'a', escapeByte}}},
	} {
		fb := feedBoth{t: t}
		got := fb.feed(tc.head, tc.name+" head")
		if !fb.got.escaped {
			t.Fatalf("%s: escape not pending after the first Feed", tc.name)
		}
		got = append(got, fb.feed(tc.tail, tc.name+" tail")...)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %x want %x", tc.name, got, tc.want)
		}
		for i := range got {
			if !bytes.Equal(got[i], tc.want[i]) {
				t.Fatalf("%s: frame %d = %x want %x", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

func TestIndexSpecialFlagInsideWord(t *testing.T) {
	// One special byte in each lane of a word, clean words before it, and
	// a second special later in the same word, which must never pre-empt
	// the first.
	for lane := 0; lane < 8; lane++ {
		for _, special := range []byte{flagByte, escapeByte} {
			p := bytes.Repeat([]byte{0x7F}, 24) // 0x7F: one bit from both
			p[8+lane] = special
			if got := indexSpecial(p); got != 8+lane {
				t.Fatalf("lane %d %#02x: index %d", lane, special, got)
			}
			for later := lane + 1; later < 8; later++ {
				p[8+later] = flagByte
				if got := indexSpecial(p); got != 8+lane {
					t.Fatalf("lane %d with another at %d: index %d", lane, later, got)
				}
				p[8+later] = 0x7F
			}
		}
	}
	// Bytes one bit or one count away from a special, and the lane values
	// the range test is built from, are all clean.
	clean := []byte{0x7C, 0x7F, 0xFE, 0xFD, 0x5E, 0x5D, 0x00, 0x80, 0x01, 0x81, 0x7E ^ 0x80, 0x7D ^ 0x80, 0xFF, 0x3E, 0x3D, 0x6E}
	if got := indexSpecial(clean); got != len(clean) {
		t.Fatalf("clean bytes: index %d", got)
	}
}

func TestDeframerSizeLimitBoundary(t *testing.T) {
	// Exactly maxFrameSize bytes pass, one more does not — whether the
	// last byte arrives in a run or as the partner of an escape, and
	// wherever the stream is cut.
	for _, lastEscaped := range []bool{false, true} {
		for _, extra := range []int{0, 1} {
			payload := make([]byte, maxFrameSize+extra)
			if lastEscaped {
				payload[len(payload)-1] = flagByte
			}
			stream := refAppendStuffed(nil, payload)
			for _, cut := range []int{len(stream), len(stream) - 2, len(stream) - 3, maxFrameSize / 2} {
				fb := feedBoth{t: t}
				what := fmt.Sprintf("escaped=%v extra=%d cut=%d", lastEscaped, extra, cut)
				fb.feed(stream[:cut], what)
				fb.feed(stream[cut:], what)
				var d Deframer
				frames := 0
				err := d.Feed(stream, func(fr []byte) error { frames++; return nil })
				if extra == 0 && (err != nil || frames != 1) {
					t.Fatalf("%s: err %v, %d frames; want the frame", what, err, frames)
				}
				if extra == 1 && (err != ErrFrameTooLarge || frames != 0) {
					t.Fatalf("%s: err %v, %d frames; want ErrFrameTooLarge", what, err, frames)
				}
			}
		}
	}
}

// randomKiB returns 1 KiB of seeded arbitrary data: the escape rate of the
// benchmark's payloads.
func randomKiB() []byte {
	p := make([]byte, 1024)
	rng := sim.NewRNG(1)
	for i := range p {
		p[i] = byte(rng.Uint64())
	}
	return p
}

func TestKernelAllocations(t *testing.T) {
	payload := randomKiB()
	if n := testing.AllocsPerRun(100, func() { sinkBytes = AppendStuffed(nil, payload) }); n != 1 {
		t.Errorf("AppendStuffed(nil, 1 KiB) allocates %v times, want 1 (pre-sized)", n)
	}
	scratch := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() { sinkBytes = AppendStuffed(scratch, payload) }); n != 0 {
		t.Errorf("AppendStuffed into a sized buffer allocates %v times, want 0", n)
	}
	var d Deframer
	stream := AppendStuffed(nil, payload)
	emit := func(fr []byte) error { sinkInt += len(fr); return nil }
	if n := testing.AllocsPerRun(100, func() { _ = d.Feed(stream, emit) }); n != 0 {
		t.Errorf("steady-state Deframer.Feed allocates %v times, want 0", n)
	}
}

var (
	sinkBytes []byte
	sinkInt   int
)

func BenchmarkAppendStuffed1K(b *testing.B) {
	payload := randomKiB()
	var dst []byte
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendStuffed(dst[:0], payload)
	}
	sinkBytes = dst
}

func BenchmarkDeframerFeed1K(b *testing.B) {
	stream := AppendStuffed(nil, randomKiB())
	var d Deframer
	emit := func(fr []byte) error { sinkInt += len(fr); return nil }
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Feed(stream, emit); err != nil {
			b.Fatal(err)
		}
	}
}
