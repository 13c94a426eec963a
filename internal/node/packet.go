// Package node implements the store-and-forward satellite DCE of the
// paper's target network (§2.1): each satellite relays I-frames hop by hop
// over LAMS-DLC links, intermediate nodes forward out-of-order arrivals
// immediately (the receiving buffer never holds good frames for
// resequencing — §2.3's core argument), and only the destination node
// restores per-source order and suppresses duplicates via
// internal/resequence.
package node

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ID names a node in the constellation.
type ID uint16

// Packet is the network-layer unit riding inside DLC datagrams: source,
// destination, a per-(source,destination) consecutive sequence number the
// destination resequences on, and the user payload.
type Packet struct {
	Src, Dst ID
	Seq      uint64
	Payload  []byte
}

// headerLen is the encoded header size.
const headerLen = 2 + 2 + 8

// ErrShortPacket reports a truncated packet buffer.
var ErrShortPacket = errors.New("node: short packet")

// Encode serializes the packet.
func (p Packet) Encode() []byte {
	buf := make([]byte, headerLen+len(p.Payload))
	p.encodeTo(buf)
	return buf
}

// encodeTo serializes the packet into buf, which must be exactly its size.
func (p Packet) encodeTo(buf []byte) {
	binary.BigEndian.PutUint16(buf[0:], uint16(p.Src))
	binary.BigEndian.PutUint16(buf[2:], uint16(p.Dst))
	binary.BigEndian.PutUint64(buf[4:], p.Seq)
	copy(buf[headerLen:], p.Payload)
}

// DecodePacket parses an encoded packet. The payload aliases buf.
func DecodePacket(buf []byte) (Packet, error) {
	if len(buf) < headerLen {
		return Packet{}, ErrShortPacket
	}
	return Packet{
		Src:     ID(binary.BigEndian.Uint16(buf[0:])),
		Dst:     ID(binary.BigEndian.Uint16(buf[2:])),
		Seq:     binary.BigEndian.Uint64(buf[4:]),
		Payload: buf[headerLen:],
	}, nil
}

// String renders the packet for traces.
func (p Packet) String() string {
	return fmt.Sprintf("pkt %d->%d seq=%d len=%d", p.Src, p.Dst, p.Seq, len(p.Payload))
}
