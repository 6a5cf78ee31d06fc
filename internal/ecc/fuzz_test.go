package ecc

import (
	"encoding/binary"
	"testing"
)

// FuzzDecode checks the SECDED contract over arbitrary codewords: with the
// 72-bit codeword (64 data bits + 7 check bits + overall parity) suffering
// zero, one, or two bit flips, the decoder must report OK, correct back to
// the original word, or detect the double — never silently return wrong
// data as clean or "corrected".
func FuzzDecode(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint8(0))
	f.Add(^uint64(0), uint8(3), uint8(70))
	f.Add(uint64(0xDEADBEEFCAFEF00D), uint8(63), uint8(64))
	f.Fuzz(func(t *testing.T, data uint64, p1, p2 uint8) {
		const codewordBits = 64 + 8
		stored := Encode(data)

		// 0 flips: clean decode.
		if got, st := Decode(data, stored); st != OK || got != data {
			t.Fatalf("clean decode: %v, %#x", st, got)
		}

		flip := func(d uint64, c uint8, p uint8) (uint64, uint8) {
			if p < 64 {
				return d ^ 1<<p, c
			}
			return d, c ^ 1<<(p-64)
		}

		// 1 flip anywhere in the codeword: corrected, data intact.
		a := p1 % codewordBits
		d1, c1 := flip(data, stored, a)
		got, st := Decode(d1, c1)
		if st != CorrectedData && st != CorrectedCheck {
			t.Fatalf("single flip at %d: status %v", a, st)
		}
		if got != data {
			t.Fatalf("single flip at %d: decoded %#x, want %#x", a, got, data)
		}

		// 2 distinct flips: always detected, never miscorrected into a
		// "clean" or "corrected" verdict.
		b := p2 % codewordBits
		if a == b {
			b = (b + 1) % codewordBits
		}
		d2, c2 := flip(d1, c1, b)
		if _, st := Decode(d2, c2); st != DetectedDouble {
			t.Fatalf("double flip at %d,%d: status %v, want detected-double", a, b, st)
		}
	})
}

// FuzzEncodeTable checks the table-driven encoder against the reference
// popcount encoder on arbitrary words, and that Decode accepts the table's
// code as clean.
func FuzzEncodeTable(f *testing.F) {
	f.Add(uint64(0))
	f.Add(^uint64(0))
	f.Add(uint64(0xDEADBEEFCAFEF00D))
	f.Fuzz(func(t *testing.T, data uint64) {
		if got, want := Encode(data), encodeRef(data); got != want {
			t.Fatalf("Encode(%#x) = %#x, reference %#x", data, got, want)
		}
		if got, st := Decode(data, encodeRef(data)); st != OK || got != data {
			t.Fatalf("Decode(%#x, reference code): %v, %#x", data, st, got)
		}
	})
}

// FuzzPageKey checks the hash-key contract over arbitrary page contents:
// the software-reference PageKey, the incremental KeyAssembler fed encoded
// line codes (in reverse order, as hardware may observe them), and the
// invariant that only the four sampled lines influence the key.
func FuzzPageKey(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{0xFF, 0x01}, uint8(7), uint8(200))
	f.Fuzz(func(t *testing.T, seed []byte, pickLine, pickByte uint8) {
		page := make([]byte, PageSize)
		for i := 0; i+8 <= len(page); i += 8 {
			x := uint64(i) * 0x9E3779B97F4A7C15
			for _, b := range seed {
				x = (x ^ uint64(b)) * 0x100000001B3
			}
			binary.LittleEndian.PutUint64(page[i:], x)
		}
		copy(page, seed) // let the fuzzer control leading bytes directly

		key := PageKey(page, DefaultKeyOffsets)

		// The assembler converges to the same key from per-line codes,
		// regardless of observation order or duplicate observations.
		a := NewKeyAssembler(DefaultKeyOffsets)
		for s := Sections - 1; s >= 0; s-- {
			li := DefaultKeyOffsets.LineIndex(s)
			code := EncodeLine(page[li*LineSize : (li+1)*LineSize])
			a.Observe(li, code)
			a.Observe(li, code)
		}
		if !a.Ready() {
			t.Fatal("assembler not ready after all sampled lines")
		}
		if a.Key() != key {
			t.Fatalf("assembled key %#x != reference %#x", a.Key(), key)
		}

		// Mutating any non-sampled line must not change the key.
		li := int(pickLine) % (PageSize / LineSize)
		sampled := false
		for s := 0; s < Sections; s++ {
			if DefaultKeyOffsets.LineIndex(s) == li {
				sampled = true
			}
		}
		if !sampled {
			page[li*LineSize+int(pickByte)%LineSize] ^= 0x5A
			if got := PageKey(page, DefaultKeyOffsets); got != key {
				t.Fatalf("unsampled line %d changed key %#x -> %#x", li, key, got)
			}
		}
	})
}
