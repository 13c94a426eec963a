// Package live runs the sans-IO protocol entities in real time over real
// byte streams (net.Conn, net.Pipe, TCP): the "channels model
// sender/receiver" execution environment, as opposed to the discrete-event
// simulation the experiments use.
//
// Three pieces:
//
//   - flag framing (this file): HDLC-style 0x7E-delimited, byte-stuffed
//     frames so that a damaged frame is contained and detectable instead of
//     desynchronizing the stream — corruption surfaces exactly like the
//     simulator's Corrupted mark;
//   - Driver: a wall-clock event loop around sim.Scheduler, so timers and
//     protocol callbacks run unchanged;
//   - Endpoint: a full-duplex dispatcher binding a LAMS-DLC Sender and/or
//     Receiver to one connection.
package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
)

// Framing constants (HDLC-style).
const (
	flagByte   = 0x7E
	escapeByte = 0x7D
	escapeXOR  = 0x20
)

// maxFrameSize bounds a deframed frame; anything larger indicates a
// desynchronized or hostile stream.
const maxFrameSize = 1 << 20

// ErrFrameTooLarge reports an over-long frame on the stream.
var ErrFrameTooLarge = errors.New("live: frame exceeds size limit")

// SWAR constants: every byte lane holds 0x01, resp. 0x80.
const (
	lanes01 = 0x0101010101010101
	lanes80 = 0x8080808080808080
)

// indexSpecial returns the index of the first flag or escape byte in p, or
// len(p) if there is none. It tests eight bytes at a time. The two values
// are neighbours (escapeByte+1 == flagByte, both below 0x80), so one range
// test per lane finds both: with low = b&0x7F, (0x80+flagByte)-low has its
// top bit set iff low <= flagByte, low+(0x80-escapeByte) iff low >=
// escapeByte, and ^b iff b < 0x80; the AND of the three marks exactly the
// lanes holding one of the two. Neither the subtraction nor the addition can carry out of a
// lane, so every lane is exact, and on a little-endian load the lowest set
// bit belongs to the first match.
func indexSpecial(p []byte) int {
	q := p
	for len(q) >= 8 {
		x := binary.LittleEndian.Uint64(q)
		low := x & (0x7F * lanes01)
		if m := ((0x80+flagByte)*lanes01 - low) & (low + (0x80-escapeByte)*lanes01) &^ x & lanes80; m != 0 {
			return len(p) - len(q) + bits.TrailingZeros64(m)>>3
		}
		q = q[8:]
	}
	for i, b := range q {
		if b == flagByte || b == escapeByte {
			return len(p) - len(q) + i
		}
	}
	return len(p)
}

// AppendStuffed appends the flag-delimited, byte-stuffed encoding of
// payload to dst. Clean runs between flag/escape bytes (128 bytes long on
// average in arbitrary data) are copied whole. A nil dst is sized for the
// payload plus the escapes arbitrary data needs, so the common call
// allocates once.
func AppendStuffed(dst, payload []byte) []byte {
	if dst == nil {
		dst = make([]byte, 0, len(payload)+len(payload)/32+8)
	}
	dst = append(dst, flagByte)
	for {
		n := indexSpecial(payload)
		dst = append(dst, payload[:n]...)
		if n == len(payload) {
			return append(dst, flagByte)
		}
		dst = append(dst, escapeByte, payload[n]^escapeXOR)
		payload = payload[n+1:]
	}
}

// Deframer incrementally extracts stuffed frames from a byte stream.
// Garbage between flags is skipped; empty frames (back-to-back flags) are
// ignored, so a shared flag between adjacent frames is legal, as in HDLC.
type Deframer struct {
	buf     []byte
	escaped bool
	inFrame bool
}

// Feed consumes stream bytes and invokes emit for each complete frame. The
// emitted slice is only valid during the callback. Like AppendStuffed it
// moves whole clean runs; once the frame buffer has grown to the stream's
// frame size it does not allocate.
func (d *Deframer) Feed(data []byte, emit func(frame []byte) error) error {
	for len(data) > 0 {
		if !d.inFrame {
			// Garbage outside a frame: skip until a flag.
			i := bytes.IndexByte(data, flagByte)
			if i < 0 {
				return nil
			}
			data = data[i+1:]
			d.inFrame = true
			continue
		}
		n := 0 // data[n] is the flag or escape byte handled below
		if !d.escaped {
			n = indexSpecial(data)
			if len(d.buf)+n > maxFrameSize {
				return d.tooLarge()
			}
			d.buf = append(d.buf, data[:n]...)
			if n == len(data) {
				return nil
			}
		} else if b := data[0]; b != flagByte && b != escapeByte {
			// The partner of an escape byte, possibly one that ended an
			// earlier call. (A flag instead aborts the escape and a second
			// escape leaves it pending; both fall through.)
			if len(d.buf) >= maxFrameSize {
				return d.tooLarge()
			}
			d.escaped = false
			d.buf = append(d.buf, b^escapeXOR)
			data = data[1:]
			continue
		}
		b := data[n]
		data = data[n+1:]
		if b == escapeByte {
			d.escaped = true
			continue
		}
		// A flag closes the frame in progress and opens the next.
		d.escaped = false
		if len(d.buf) > 0 {
			frame := d.buf
			d.buf = d.buf[:0]
			if err := emit(frame); err != nil {
				return err
			}
		}
	}
	return nil
}

// tooLarge abandons the over-long frame and drops back to hunting for a
// flag.
func (d *Deframer) tooLarge() error {
	d.buf = d.buf[:0]
	d.escaped = false
	d.inFrame = false
	return ErrFrameTooLarge
}
