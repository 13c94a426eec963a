package fec

// Bit-level Hamming(7,4) codec, the empirical check on the Scheme algebra.
// A 4-bit nibble becomes a 7-bit codeword; the decoder corrects any single
// bit error per codeword (double errors miscorrect, as real Hamming does —
// the Scheme algebra accounts for that as residual errors).
//
// Layout: codeword bits [p1 p2 d1 p3 d2 d3 d4] with parity positions 1,2,4
// (1-indexed), the classic systematic-ish Hamming arrangement where the
// syndrome directly names the flipped position.

// hammingEncodeNibble maps a 4-bit value to its 7-bit codeword.
func hammingEncodeNibble(d byte) byte {
	d1 := d & 1
	d2 := (d >> 1) & 1
	d3 := (d >> 2) & 1
	d4 := (d >> 3) & 1
	p1 := d1 ^ d2 ^ d4
	p2 := d1 ^ d3 ^ d4
	p3 := d2 ^ d3 ^ d4
	// positions (1-indexed): 1=p1 2=p2 3=d1 4=p3 5=d2 6=d3 7=d4
	return p1 | p2<<1 | d1<<2 | p3<<3 | d2<<4 | d3<<5 | d4<<6
}

// hammingDecodeWord corrects a single-bit error in the 7-bit codeword and
// returns the 4-bit data plus whether a correction was applied.
func hammingDecodeWord(w byte) (data byte, corrected bool) {
	bit := func(pos uint) byte { return (w >> (pos - 1)) & 1 }
	s1 := bit(1) ^ bit(3) ^ bit(5) ^ bit(7)
	s2 := bit(2) ^ bit(3) ^ bit(6) ^ bit(7)
	s3 := bit(4) ^ bit(5) ^ bit(6) ^ bit(7)
	syndrome := s1 | s2<<1 | s3<<2
	if syndrome != 0 {
		w ^= 1 << (syndrome - 1)
		corrected = true
	}
	d1 := bit(3)
	d2 := bit(5)
	d3 := bit(6)
	d4 := bit(7)
	return d1 | d2<<1 | d3<<2 | d4<<3, corrected
}
