// Package frame defines the wire format shared by the protocols in this
// repository: LAMS-DLC information and control frames (Check-Point-NAK,
// Enforced-NAK / Resolving command, Request-NAK) and the HDLC frames used by
// the selective-repeat baseline (I, RR, REJ, SREJ).
//
// Design follows the paper's Section 3.1:
//
//   - I-frames carry user bits and a sequence number N(S). LAMS-DLC assigns a
//     fresh sequence number to every transmission, including retransmissions,
//     so frames also carry the datagram identity the destination resequencer
//     needs for duplicate suppression.
//   - Control frames are never piggybacked (link-model assumption 4: control
//     frames ride a more powerful FEC). Check-Point and Enforced-NAK share
//     one format distinguished by the Enforced bit; both carry a Stop-Go bit
//     for flow control and a variable-length list of NAKed sequence numbers.
//   - Request-NAK is a fixed-size solicitation, akin to an HDLC P-bit
//     checkpoint.
//
// In simulation, frames travel as *Frame values and corruption is marked
// out-of-band (assumption 9: every channel error is detectable), but the
// codec is a complete byte-level format with real FCS fields so the live
// driver can run the same state machines over untrusted byte streams:
// Encode/Decode round-trip every frame, and Decode verifies checksums.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/crc"
)

// Kind identifies the frame type on the wire.
type Kind uint8

// Frame kinds. The LAMS kinds implement the paper's protocol; the HDLC kinds
// serve the selective-repeat/Go-Back-N baseline.
const (
	KindInvalid    Kind = iota
	KindI               // LAMS-DLC information frame
	KindCheckpoint      // Check-Point command / Check-Point-NAK / Enforced-NAK / Resolving
	KindRequestNAK      // Request-NAK solicitation
	KindHDLCI           // HDLC information frame (carries N(S) and piggybacked N(R))
	KindRR              // HDLC Receive Ready (positive ack, window credit)
	KindREJ             // HDLC Reject (Go-Back-N negative ack)
	KindSREJ            // HDLC Selective Reject
)

var kindNames = [...]string{
	KindInvalid:    "INVALID",
	KindI:          "I",
	KindCheckpoint: "CP",
	KindRequestNAK: "REQNAK",
	KindHDLCI:      "HDLC-I",
	KindRR:         "RR",
	KindREJ:        "REJ",
	KindSREJ:       "SREJ",
}

// String returns the conventional mnemonic for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Control reports whether the kind is a control frame (no user payload).
func (k Kind) Control() bool { return k != KindI && k != KindHDLCI }

// Flag bits of the control-frame flags octet.
const (
	flagStopGo   = 1 << 0 // receiver anticipates receive-buffer overflow
	flagEnforced = 1 << 1 // checkpoint answers a Request-NAK (Enforced-NAK)
	flagFinal    = 1 << 2 // HDLC P/F bit
)

// Frame is the in-memory representation of any frame either protocol sends.
// It is a tagged union: which fields are meaningful depends on Kind. The
// zero Frame is invalid.
type Frame struct {
	Kind Kind

	// Seq is N(S) for information frames (both protocols) and the sequence
	// number being rejected for REJ/SREJ.
	Seq uint32

	// Ack is protocol-dependent: for LAMS checkpoint frames it is the
	// highest-seen watermark (the implicit positive acknowledgement); for
	// HDLC frames it is N(R), the next expected sequence number.
	Ack uint32

	// Serial numbers checkpoint commands (and Request-NAKs) so the sender
	// can correlate an Enforced-NAK with its Request-NAK.
	Serial uint32

	// NAKs lists the sequence numbers reported erroneous, cumulated over
	// the last C_depth checkpoint intervals (KindCheckpoint only).
	NAKs []uint32

	// StopGo is the flow-control bit (§3.4).
	StopGo bool

	// Enforced marks a checkpoint as an Enforced-NAK / Resolving command.
	Enforced bool

	// Final is the HDLC P/F bit.
	Final bool

	// Corrupted marks a frame damaged in transit. It is simulation
	// metadata: the channel sets it instead of flipping payload bits, and
	// receivers treat a corrupted frame exactly as a failed FCS check
	// (the frame's content must not be inspected). Encode refuses to
	// serialize corrupted frames. It sits with the other flags so that the
	// struct, home included, stays in the 96-byte size class.
	Corrupted bool

	// DatagramID identifies the user datagram an I-frame carries, so the
	// destination can resequence and de-duplicate after renumbered
	// retransmissions. The DLC never exposes it to its peer logic.
	DatagramID uint64

	// Payload is the user data of an information frame. The codec limits
	// payloads to MaxPayload bytes.
	Payload []byte

	// EnqueuedNS carries the datagram's network-layer enqueue instant
	// (virtual nanoseconds) so the receiving endpoint can measure
	// end-to-end delay. Simulation metadata: not serialized, zero over
	// real transports.
	EnqueuedNS int64

	// home is the free list Put returns the frame to (see List); nil for a
	// frame no simulated run owns.
	home *List
}

// MaxPayload is the largest I-frame payload the codec accepts. 64 KiB covers
// the frame sizes the paper's environment sweeps (1–8 KiB typical).
const MaxPayload = 1 << 16

// MaxNAKs bounds the NAK list length; a checkpoint cumulating C_depth
// intervals on a fast link can report many errors, but a list longer than
// this indicates a protocol bug rather than a bad channel.
const MaxNAKs = 1 << 16

// Codec errors.
var (
	ErrTruncated   = errors.New("frame: truncated")
	ErrBadChecksum = errors.New("frame: checksum mismatch")
	ErrBadKind     = errors.New("frame: unknown kind")
	ErrTooLarge    = errors.New("frame: payload or NAK list too large")
	ErrCorrupted   = errors.New("frame: refusing to encode corrupted frame")
)

// Wire layout constants.
const (
	iHeaderLen    = 1 + 4 + 8 + 4 // kind, seq, datagram id, payload length
	iTrailerLen   = 4             // CRC-32
	cpHeaderLen   = 1 + 1 + 4 + 4 + 4
	cpTrailerLen  = 2 // FCS16
	reqLen        = 1 + 1 + 4 + cpTrailerLen
	hdlcILen      = 1 + 1 + 4 + 4 + 8 + 4 // kind, flags, ns, nr, datagram id, payload length
	hdlcSLen      = 1 + 1 + 4 + 4         // kind, flags, nr, seq
	sizeofSeq     = 4
	sizeofNAKCnt  = 4
	payloadLenOff = 13
)

// WireLen returns the exact encoded length of the frame in bytes. It is what
// the channel model uses to compute transmission time t_f / t_c, so it must
// agree with Encode.
func (f *Frame) WireLen() int {
	switch f.Kind {
	case KindI:
		return iHeaderLen + len(f.Payload) + iTrailerLen
	case KindCheckpoint:
		return cpHeaderLen + sizeofNAKCnt + sizeofSeq*len(f.NAKs) + cpTrailerLen
	case KindRequestNAK:
		return reqLen
	case KindHDLCI:
		return hdlcILen + len(f.Payload) + iTrailerLen
	case KindRR, KindREJ, KindSREJ:
		return hdlcSLen + cpTrailerLen
	default:
		return 0
	}
}

// Bits returns the frame length in bits, the unit the throughput analysis
// works in.
func (f *Frame) Bits() int { return f.WireLen() * 8 }

func (f *Frame) flags() byte {
	var fl byte
	if f.StopGo {
		fl |= flagStopGo
	}
	if f.Enforced {
		fl |= flagEnforced
	}
	if f.Final {
		fl |= flagFinal
	}
	return fl
}

func (f *Frame) setFlags(fl byte) {
	f.StopGo = fl&flagStopGo != 0
	f.Enforced = fl&flagEnforced != 0
	f.Final = fl&flagFinal != 0
}

// AppendEncode serializes the frame onto dst and returns the extended slice.
// It fails on corrupted frames, unknown kinds, and oversized payloads or NAK
// lists.
func (f *Frame) AppendEncode(dst []byte) ([]byte, error) {
	if f.Corrupted {
		return dst, ErrCorrupted
	}
	switch f.Kind {
	case KindI:
		if len(f.Payload) > MaxPayload {
			return dst, ErrTooLarge
		}
		start := len(dst)
		dst = append(dst, byte(KindI))
		dst = binary.BigEndian.AppendUint32(dst, f.Seq)
		dst = binary.BigEndian.AppendUint64(dst, f.DatagramID)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
		dst = append(dst, f.Payload...)
		sum := crc.Sum32(dst[start:])
		return binary.BigEndian.AppendUint32(dst, sum), nil

	case KindCheckpoint:
		if len(f.NAKs) > MaxNAKs {
			return dst, ErrTooLarge
		}
		start := len(dst)
		dst = append(dst, byte(KindCheckpoint), f.flags())
		dst = binary.BigEndian.AppendUint32(dst, f.Serial)
		dst = binary.BigEndian.AppendUint32(dst, f.Ack)
		dst = binary.BigEndian.AppendUint32(dst, f.Seq)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.NAKs)))
		for _, n := range f.NAKs {
			dst = binary.BigEndian.AppendUint32(dst, n)
		}
		sum := crc.FCS16(dst[start:])
		return binary.BigEndian.AppendUint16(dst, sum), nil

	case KindRequestNAK:
		start := len(dst)
		dst = append(dst, byte(KindRequestNAK), f.flags())
		dst = binary.BigEndian.AppendUint32(dst, f.Serial)
		sum := crc.FCS16(dst[start:])
		return binary.BigEndian.AppendUint16(dst, sum), nil

	case KindHDLCI:
		if len(f.Payload) > MaxPayload {
			return dst, ErrTooLarge
		}
		start := len(dst)
		dst = append(dst, byte(KindHDLCI), f.flags())
		dst = binary.BigEndian.AppendUint32(dst, f.Seq)
		dst = binary.BigEndian.AppendUint32(dst, f.Ack)
		dst = binary.BigEndian.AppendUint64(dst, f.DatagramID)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
		dst = append(dst, f.Payload...)
		sum := crc.Sum32(dst[start:])
		return binary.BigEndian.AppendUint32(dst, sum), nil

	case KindRR, KindREJ, KindSREJ:
		start := len(dst)
		dst = append(dst, byte(f.Kind), f.flags())
		dst = binary.BigEndian.AppendUint32(dst, f.Ack)
		dst = binary.BigEndian.AppendUint32(dst, f.Seq)
		sum := crc.FCS16(dst[start:])
		return binary.BigEndian.AppendUint16(dst, sum), nil

	default:
		return dst, ErrBadKind
	}
}

// Encode serializes the frame into a fresh buffer.
func (f *Frame) Encode() ([]byte, error) {
	return f.AppendEncode(make([]byte, 0, f.WireLen()))
}

// Decode parses one frame from the beginning of buf, returning the frame and
// the number of bytes consumed. The returned frame's Payload and NAKs alias
// fresh allocations, never buf.
func Decode(buf []byte) (*Frame, int, error) {
	var f Frame
	n, err := f.DecodeFrom(buf)
	if err != nil {
		return nil, 0, err
	}
	return &f, n, nil
}

// DecodeFrom parses one frame from buf into f (gopacket-style reuse: the
// caller may hold one Frame and decode into it repeatedly; Payload and NAKs
// are copied out of buf so the frame stays valid after the buffer is
// recycled). The copies reuse f's existing Payload and NAKs capacity, so a
// steady-state decode loop stops allocating — which also means the previous
// decode's Payload/NAKs are only valid until the next DecodeFrom into the
// same Frame. It returns the number of bytes consumed.
func (f *Frame) DecodeFrom(buf []byte) (int, error) {
	if len(buf) < 1 {
		return 0, ErrTruncated
	}
	k := Kind(buf[0])
	payload, naks := f.Payload[:0], f.NAKs[:0]
	*f = Frame{Kind: k}
	switch k {
	case KindI:
		if len(buf) < iHeaderLen {
			return 0, ErrTruncated
		}
		f.Seq = binary.BigEndian.Uint32(buf[1:])
		f.DatagramID = binary.BigEndian.Uint64(buf[5:])
		plen := int(binary.BigEndian.Uint32(buf[payloadLenOff:]))
		if plen > MaxPayload {
			return 0, ErrTooLarge
		}
		total := iHeaderLen + plen + iTrailerLen
		if len(buf) < total {
			return 0, ErrTruncated
		}
		body := buf[:iHeaderLen+plen]
		sum := binary.BigEndian.Uint32(buf[iHeaderLen+plen:])
		if !crc.CheckSum32(body, sum) {
			return 0, ErrBadChecksum
		}
		f.Payload = append(payload, buf[iHeaderLen:iHeaderLen+plen]...)
		return total, nil

	case KindCheckpoint:
		if len(buf) < cpHeaderLen+sizeofNAKCnt {
			return 0, ErrTruncated
		}
		f.setFlags(buf[1])
		f.Serial = binary.BigEndian.Uint32(buf[2:])
		f.Ack = binary.BigEndian.Uint32(buf[6:])
		f.Seq = binary.BigEndian.Uint32(buf[10:])
		cnt := int(binary.BigEndian.Uint32(buf[14:]))
		if cnt > MaxNAKs {
			return 0, ErrTooLarge
		}
		total := cpHeaderLen + sizeofNAKCnt + sizeofSeq*cnt + cpTrailerLen
		if len(buf) < total {
			return 0, ErrTruncated
		}
		body := buf[:total-cpTrailerLen]
		sum := binary.BigEndian.Uint16(buf[total-cpTrailerLen:])
		if !crc.CheckFCS16(body, sum) {
			return 0, ErrBadChecksum
		}
		if cnt > 0 {
			off := cpHeaderLen + sizeofNAKCnt
			for i := 0; i < cnt; i++ {
				naks = append(naks, binary.BigEndian.Uint32(buf[off+4*i:]))
			}
			f.NAKs = naks
		}
		return total, nil

	case KindRequestNAK:
		if len(buf) < reqLen {
			return 0, ErrTruncated
		}
		body := buf[:reqLen-cpTrailerLen]
		sum := binary.BigEndian.Uint16(buf[reqLen-cpTrailerLen:])
		if !crc.CheckFCS16(body, sum) {
			return 0, ErrBadChecksum
		}
		f.setFlags(buf[1])
		f.Serial = binary.BigEndian.Uint32(buf[2:])
		return reqLen, nil

	case KindHDLCI:
		if len(buf) < hdlcILen {
			return 0, ErrTruncated
		}
		f.setFlags(buf[1])
		f.Seq = binary.BigEndian.Uint32(buf[2:])
		f.Ack = binary.BigEndian.Uint32(buf[6:])
		f.DatagramID = binary.BigEndian.Uint64(buf[10:])
		plen := int(binary.BigEndian.Uint32(buf[18:]))
		if plen > MaxPayload {
			return 0, ErrTooLarge
		}
		total := hdlcILen + plen + iTrailerLen
		if len(buf) < total {
			return 0, ErrTruncated
		}
		body := buf[:hdlcILen+plen]
		sum := binary.BigEndian.Uint32(buf[hdlcILen+plen:])
		if !crc.CheckSum32(body, sum) {
			return 0, ErrBadChecksum
		}
		f.Payload = append(payload, buf[hdlcILen:hdlcILen+plen]...)
		return total, nil

	case KindRR, KindREJ, KindSREJ:
		total := hdlcSLen + cpTrailerLen
		if len(buf) < total {
			return 0, ErrTruncated
		}
		body := buf[:hdlcSLen]
		sum := binary.BigEndian.Uint16(buf[hdlcSLen:])
		if !crc.CheckFCS16(body, sum) {
			return 0, ErrBadChecksum
		}
		f.setFlags(buf[1])
		f.Ack = binary.BigEndian.Uint32(buf[2:])
		f.Seq = binary.BigEndian.Uint32(buf[6:])
		return total, nil

	default:
		return 0, ErrBadKind
	}
}

// String renders a compact human-readable summary, e.g.
// "I seq=17 dg=3 len=1024" or "CP* serial=9 ack=17 naks=[4 11] stop".
func (f *Frame) String() string {
	var s string
	switch f.Kind {
	case KindI:
		s = fmt.Sprintf("I seq=%d dg=%d len=%d", f.Seq, f.DatagramID, len(f.Payload))
	case KindCheckpoint:
		name := "CP"
		if f.Enforced {
			name = "CP*" // Enforced-NAK / Resolving command
		}
		s = fmt.Sprintf("%s serial=%d ack=%d naks=%v", name, f.Serial, f.Ack, f.NAKs)
		if f.StopGo {
			s += " stop"
		}
	case KindRequestNAK:
		s = fmt.Sprintf("REQNAK serial=%d", f.Serial)
	case KindHDLCI:
		s = fmt.Sprintf("HDLC-I ns=%d nr=%d len=%d", f.Seq, f.Ack, len(f.Payload))
		if f.Final {
			s += " P"
		}
	case KindRR, KindREJ, KindSREJ:
		s = fmt.Sprintf("%s nr=%d", f.Kind, f.Ack)
		if f.Kind == KindSREJ || f.Kind == KindREJ {
			s = fmt.Sprintf("%s nr=%d seq=%d", f.Kind, f.Ack, f.Seq)
		}
		if f.Final {
			s += " F"
		}
	default:
		s = "INVALID"
	}
	if f.Corrupted {
		s += " (corrupted)"
	}
	return s
}

// NewI builds a LAMS-DLC information frame.
func NewI(seq uint32, datagramID uint64, payload []byte) *Frame {
	return &Frame{Kind: KindI, Seq: seq, DatagramID: datagramID, Payload: payload}
}

// NewCheckpoint builds a Check-Point command. With a non-empty nak list it is
// a Check-Point-NAK; with enforced set it is an Enforced-NAK (or, with no
// NAKs, a Resolving command).
func NewCheckpoint(serial, highestSeen uint32, naks []uint32, stopGo, enforced bool) *Frame {
	return &Frame{
		Kind:     KindCheckpoint,
		Serial:   serial,
		Ack:      highestSeen,
		NAKs:     naks,
		StopGo:   stopGo,
		Enforced: enforced,
	}
}

// NewRequestNAK builds a Request-NAK solicitation.
func NewRequestNAK(serial uint32) *Frame {
	return &Frame{Kind: KindRequestNAK, Serial: serial}
}
