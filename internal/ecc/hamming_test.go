package ecc

import (
	"testing"
	"testing/quick"
)

func TestDecodeCleanWord(t *testing.T) {
	for _, d := range []uint64{0, 1, 0xFFFFFFFFFFFFFFFF, 0xDEADBEEFCAFEBABE, 1 << 63} {
		code := Encode(d)
		got, st := Decode(d, code)
		if st != OK || got != d {
			t.Fatalf("Decode(clean %#x) = %#x, %v", d, got, st)
		}
	}
}

func TestEverySingleDataBitErrorCorrected(t *testing.T) {
	words := []uint64{0, 0xFFFFFFFFFFFFFFFF, 0xA5A5A5A5A5A5A5A5, 0x0123456789ABCDEF}
	for _, d := range words {
		code := Encode(d)
		for i := uint(0); i < 64; i++ {
			corrupted := FlipBit(d, i)
			got, st := Decode(corrupted, code)
			if st != CorrectedData {
				t.Fatalf("word %#x bit %d: status %v, want CorrectedData", d, i, st)
			}
			if got != d {
				t.Fatalf("word %#x bit %d: corrected to %#x, want original", d, i, got)
			}
		}
	}
}

func TestEverySingleCheckBitErrorFlagged(t *testing.T) {
	d := uint64(0x0F0F0F0F12345678)
	code := Encode(d)
	for i := uint(0); i < 8; i++ {
		corrupted := code ^ (1 << i)
		got, st := Decode(d, corrupted)
		if st != CorrectedCheck {
			t.Fatalf("check bit %d: status %v, want CorrectedCheck", i, st)
		}
		if got != d {
			t.Fatalf("check bit %d: data altered to %#x", i, got)
		}
	}
}

func TestEveryDoubleDataBitErrorDetected(t *testing.T) {
	d := uint64(0xCAFED00D8BADF00D)
	code := Encode(d)
	for i := uint(0); i < 64; i++ {
		for j := i + 1; j < 64; j++ {
			corrupted := FlipBit(FlipBit(d, i), j)
			got, st := Decode(corrupted, code)
			if st != DetectedDouble {
				t.Fatalf("bits %d,%d: status %v, want DetectedDouble", i, j, st)
			}
			if got != corrupted {
				t.Fatalf("bits %d,%d: double error must not be 'corrected'", i, j)
			}
		}
	}
}

func TestDataPlusCheckBitDoubleErrorDetected(t *testing.T) {
	// One data bit and one check bit flipped: must not miscorrect.
	d := uint64(0x1122334455667788)
	code := Encode(d)
	misclassified := 0
	for i := uint(0); i < 64; i++ {
		for c := uint(0); c < 8; c++ {
			_, st := Decode(FlipBit(d, i), code^(1<<c))
			// SECDED guarantees detection of any two flips; correction
			// attempts must never silently return OK.
			if st == OK {
				misclassified++
			}
		}
	}
	if misclassified != 0 {
		t.Fatalf("%d data+check double errors decoded as OK", misclassified)
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	if err := quick.Check(func(d uint64) bool {
		got, st := Decode(d, Encode(d))
		return st == OK && got == d
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleErrorCorrectionQuick(t *testing.T) {
	if err := quick.Check(func(d uint64, bit uint8) bool {
		i := uint(bit) % 64
		got, st := Decode(FlipBit(d, i), Encode(d))
		return st == CorrectedData && got == d
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeIsDeterministicAndSensitive(t *testing.T) {
	if Encode(0x12345678) != Encode(0x12345678) {
		t.Fatal("Encode not deterministic")
	}
	// Flipping any single bit must change the code (distance >= 3).
	d := uint64(0x5555AAAA3333CCCC)
	base := Encode(d)
	for i := uint(0); i < 64; i++ {
		if Encode(FlipBit(d, i)) == base {
			t.Fatalf("bit %d flip left the ECC code unchanged", i)
		}
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		OK:             "ok",
		CorrectedData:  "corrected-data",
		CorrectedCheck: "corrected-check",
		DetectedDouble: "detected-double",
		Status(99):     "unknown",
	} {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestParity64(t *testing.T) {
	cases := map[uint64]uint64{
		0:                  0,
		1:                  1,
		3:                  0,
		7:                  1,
		0xFFFFFFFFFFFFFFFF: 0,
		1 << 63:            1,
	}
	for in, want := range cases {
		if got := parity64(in); got != want {
			t.Errorf("parity64(%#x) = %d, want %d", in, got, want)
		}
	}
}

// checkMask[c] has bit i set when data bit i participates in check bit c:
// data bits fill the codeword positions that are not powers of two in
// ascending order, and check bit c covers every position with bit c set.
var checkMask = func() (m [checkBits]uint64) {
	i := 0
	for p := 1; p <= codewordBits; p++ {
		if p&(p-1) == 0 {
			continue
		}
		for c := range m {
			if p&(1<<c) != 0 {
				m[c] |= 1 << i
			}
		}
		i++
	}
	return m
}()

// hammingChecks is the reference for the table encoder's low 7 bits: check
// bit c is the parity of the data bits it covers, one AND+popcount each.
func hammingChecks(data uint64) uint8 {
	var code uint8
	for c := 0; c < checkBits; c++ {
		code |= uint8(parity64(data&checkMask[c])) << c
	}
	return code
}

// encodeRef is the reference SECDED encoder the table must match: the
// Hamming checks plus the overall parity of data and check bits.
func encodeRef(data uint64) uint8 {
	code := hammingChecks(data)
	return code | uint8(parity64(data)^parity64(uint64(code)))<<7
}

// TestEncodeTableSweep holds the table encoder to the reference on a fixed
// sweep of 1M words: every single-bit and double-bit word, then
// pseudo-random ones.
func TestEncodeTableSweep(t *testing.T) {
	const words = 1 << 20
	check := func(w uint64) {
		if got, want := Encode(w), encodeRef(w); got != want {
			t.Fatalf("Encode(%#x) = %#x, reference %#x", w, got, want)
		}
	}
	n := 1
	check(0)
	for i := 0; i < 64; i++ {
		for j := i; j < 64; j++ {
			check(1<<i | 1<<j)
			n++
		}
	}
	for x := uint64(0x9E3779B97F4A7C15); n < words; n++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		check(x)
	}
}
