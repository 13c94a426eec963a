// Package crc implements the frame check sequences used by the frame codec:
// CRC-16/X.25 (the HDLC FCS: reflected polynomial 0x1021, init 0xFFFF, final
// XOR 0xFFFF) for control frames, and CRC-32/IEEE for I-frame bodies, which
// on a 300 Mbps – 1 Gbps laser link are large enough that a 16-bit check
// would leave a non-negligible undetected-error rate.
//
// The paper's link model (assumption 9) treats every channel error as
// detectable; the simulator honours that by marking corrupted frames
// out-of-band, but the codec still carries and verifies real FCS fields so
// the wire format is complete and the live driver can run over real,
// untrusted byte streams.
package crc

import "hash/crc32"

// CCITT polynomial (reversed) used by HDLC/X.25.
const ccittPoly = 0x8408

var ccittTable [256]uint16

func init() {
	for i := range ccittTable {
		crc := uint16(i)
		for b := 0; b < 8; b++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ ccittPoly
			} else {
				crc >>= 1
			}
		}
		ccittTable[i] = crc
	}
}

// FCS16 returns the HDLC frame check sequence (CRC-16/X.25) of data.
// The hot loop uses slicing-by-8 (see slicing.go); fcs16Bytewise computes
// the same function one byte at a time and cross-checks it in tests.
func FCS16(data []byte) uint16 {
	return update16(0xFFFF, data) ^ 0xFFFF
}

func fcs16Bytewise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = (crc >> 8) ^ ccittTable[byte(crc)^b]
	}
	return crc ^ 0xFFFF
}

// CheckFCS16 reports whether sum is the correct FCS16 of data.
func CheckFCS16(data []byte, sum uint16) bool { return FCS16(data) == sum }

// Sum32 returns the CRC-32/IEEE checksum of data (reflected polynomial
// 0xEDB88320, init and final XOR 0xFFFFFFFF). It is the standard library's
// implementation, which uses the carry-less-multiply instructions where the
// CPU has them; the tests cross-check it against a bytewise reference.
func Sum32(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// CheckSum32 reports whether sum is the correct CRC-32 of data.
func CheckSum32(data []byte, sum uint32) bool { return Sum32(data) == sum }
