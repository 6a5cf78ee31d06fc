// Package ecc implements the memory-controller ECC substrate that PageForge
// repurposes for hash-key generation: a SECDED (72,64) Hamming code (single
// error correction, double error detection), per-64B-line ECC codes, and the
// ECC-based page hash keys of Section 3.3 of the paper.
//
// Commercial DDR DIMMs store 8 ECC bits per 64 data bits in a spare chip; a
// 64B cache line therefore carries an 8B ECC code, one byte per 64-bit word.
package ecc

import "math/bits"

// The (72,64) code is a truncated Hamming code plus an overall parity bit,
// exactly the construction the paper names ("a truncated version of the
// (127,120) Hamming code with the addition of a parity bit").
//
// Codeword positions are numbered 1..71. Positions that are powers of two
// (1,2,4,8,16,32,64) hold the 7 Hamming check bits; the remaining 64
// positions hold data bits in ascending order. Check bit p_i is the XOR of
// all positions whose index has bit i set. The 8th ECC bit is the overall
// parity of all 71 codeword bits, which upgrades single-error correction to
// double-error detection.

const (
	codewordBits = 71 // 64 data + 7 Hamming check bits
	checkBits    = 7
)

// dataPos[i] is the codeword position (1-based) of data bit i.
// posData[p] is the data bit stored at codeword position p, or -1.
var (
	dataPos [64]int
	posData [codewordBits + 1]int
	// encodeTable[b][v] is the code of the data word whose byte b is v and
	// whose other bytes are zero. The code is linear over GF(2), overall
	// parity included, so a word's code is the XOR of its eight bytes'
	// entries: the software image of the XOR tree a hardware encoder uses.
	encodeTable [8][256]uint8
)

func init() {
	for p := range posData {
		posData[p] = -1
	}
	d := 0
	for p := 1; p <= codewordBits; p++ {
		if p&(p-1) == 0 { // power of two: a check-bit position
			continue
		}
		dataPos[d] = p
		posData[p] = d
		d++
	}
	if d != 64 {
		panic("ecc: (72,64) construction must place exactly 64 data bits")
	}
	// Check bit c covers every position with bit c set, so the Hamming
	// checks of a word holding only data bit i spell dataPos[i]; the
	// overall parity adds that word's one data bit to the set check bits.
	for i, p := range dataPos {
		col := uint8(p) | uint8(1^parity64(uint64(p)))<<7
		b, bit := i/8, i%8
		for v := range 256 {
			if v>>bit&1 != 0 {
				encodeTable[b][v] ^= col
			}
		}
	}
}

// parity64 reports the XOR-fold (parity) of all bits in v.
func parity64(v uint64) uint64 { return uint64(bits.OnesCount64(v) & 1) }

// Encode computes the 8-bit SECDED code for a 64-bit data word. Bits 0..6
// are the Hamming check bits p1,p2,p4,...,p64; bit 7 is the overall parity
// of the 71-bit codeword (data bits plus check bits).
func Encode(data uint64) uint8 {
	return encodeTable[0][uint8(data)] ^ encodeTable[1][uint8(data>>8)] ^
		encodeTable[2][uint8(data>>16)] ^ encodeTable[3][uint8(data>>24)] ^
		encodeTable[4][uint8(data>>32)] ^ encodeTable[5][uint8(data>>40)] ^
		encodeTable[6][uint8(data>>48)] ^ encodeTable[7][uint8(data>>56)]
}

// Status classifies the outcome of decoding a (data, code) pair.
type Status int

const (
	// OK: no error detected.
	OK Status = iota
	// CorrectedData: a single-bit error in the data word was corrected.
	CorrectedData
	// CorrectedCheck: a single-bit error in the stored ECC code itself was
	// detected (the data word is intact).
	CorrectedCheck
	// DetectedDouble: a double-bit error was detected; the data cannot be
	// trusted and software must be notified.
	DetectedDouble
)

// String renders the status for diagnostics.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case CorrectedData:
		return "corrected-data"
	case CorrectedCheck:
		return "corrected-check"
	case DetectedDouble:
		return "detected-double"
	default:
		return "unknown"
	}
}

// Decode checks a data word against its stored SECDED code, returning the
// (possibly corrected) data word and the error classification.
//
// The syndrome is the XOR of the recomputed and stored Hamming check bits.
// The overall-parity check must be evaluated over the *received* codeword —
// the data word plus the stored check bits plus the stored parity bit — so
// that any single flipped bit (data, check, or parity) shows up as exactly
// one parity violation.
func Decode(data uint64, stored uint8) (uint64, Status) {
	syndrome := (Encode(data) ^ stored) & 0x7F
	received := parity64(data) ^ parity64(uint64(stored)) // parity of data + 7 check bits + parity bit
	parityMismatch := received != 0

	switch {
	case syndrome == 0 && !parityMismatch:
		return data, OK
	case syndrome == 0 && parityMismatch:
		// The overall parity bit itself flipped; data is intact.
		return data, CorrectedCheck
	case parityMismatch:
		// Single-bit error at codeword position == syndrome.
		p := int(syndrome)
		if p > codewordBits {
			// Syndrome points outside the truncated codeword: the pattern is
			// not a correctable single error.
			return data, DetectedDouble
		}
		if d := posData[p]; d >= 0 {
			return data ^ (1 << uint(d)), CorrectedData
		}
		// The error hit one of the stored check bits.
		return data, CorrectedCheck
	default:
		// Non-zero syndrome with matching overall parity: two bits flipped.
		return data, DetectedDouble
	}
}

// FlipBit returns data with bit i toggled; a test/fault-injection helper.
func FlipBit(data uint64, i uint) uint64 {
	return data ^ (1 << (i & 63))
}
