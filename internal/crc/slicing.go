package crc

// Slicing-by-8 tables: t[0] is the classic bytewise table; t[j][i] extends
// it so that eight input bytes fold into the running CRC with eight table
// lookups and no inter-byte dependency chain. For a reflected CRC the
// recurrence is t[j][i] = t[0][t[j-1][i] & 0xff] ^ (t[j-1][i] >> 8): one
// more zero byte pushed through the register. Only the 16-bit FCS needs
// them: no CPU instruction computes CRC-16/X.25, whereas CRC-32/IEEE is the
// standard library's (see Sum32).
var ccittSlice [8][256]uint16

func init() {
	ccittSlice[0] = ccittTable
	for j := 1; j < 8; j++ {
		for i := range ccittSlice[j] {
			prev := ccittSlice[j-1][i]
			ccittSlice[j][i] = ccittSlice[0][byte(prev)] ^ (prev >> 8)
		}
	}
}

// update16 folds data into crc eight bytes at a time, finishing the tail
// bytewise. It computes exactly the same function as the bytewise loop.
func update16(crc uint16, data []byte) uint16 {
	for len(data) >= 8 {
		crc ^= uint16(data[0]) | uint16(data[1])<<8
		crc = ccittSlice[7][byte(crc)] ^
			ccittSlice[6][byte(crc>>8)] ^
			ccittSlice[5][data[2]] ^
			ccittSlice[4][data[3]] ^
			ccittSlice[3][data[4]] ^
			ccittSlice[2][data[5]] ^
			ccittSlice[1][data[6]] ^
			ccittSlice[0][data[7]]
		data = data[8:]
	}
	for _, b := range data {
		crc = (crc >> 8) ^ ccittTable[byte(crc)^b]
	}
	return crc
}
