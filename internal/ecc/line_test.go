package ecc

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func randLine(r *sim.RNG) []byte {
	b := make([]byte, LineSize)
	r.FillBytes(b)
	return b
}

func TestEncodeLineRoundTrip(t *testing.T) {
	r := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		line := randLine(r)
		code := EncodeLine(line)
		out, st := DecodeLine(line, code)
		if st != OK {
			t.Fatalf("clean line decoded with status %v", st)
		}
		if !bytes.Equal(out, line) {
			t.Fatal("clean decode altered the line")
		}
	}
}

func TestDecodeLineCorrectsSingleBit(t *testing.T) {
	r := sim.NewRNG(2)
	line := randLine(r)
	code := EncodeLine(line)
	for byteIdx := 0; byteIdx < LineSize; byteIdx += 7 {
		for bit := uint(0); bit < 8; bit += 3 {
			corrupted := make([]byte, LineSize)
			copy(corrupted, line)
			corrupted[byteIdx] ^= 1 << bit
			out, st := DecodeLine(corrupted, code)
			if st != CorrectedData {
				t.Fatalf("byte %d bit %d: status %v", byteIdx, bit, st)
			}
			if !bytes.Equal(out, line) {
				t.Fatalf("byte %d bit %d: correction failed", byteIdx, bit)
			}
		}
	}
}

func TestDecodeLineDetectsDoubleInSameWord(t *testing.T) {
	r := sim.NewRNG(3)
	line := randLine(r)
	code := EncodeLine(line)
	corrupted := make([]byte, LineSize)
	copy(corrupted, line)
	corrupted[0] ^= 0x03 // two bits in word 0
	_, st := DecodeLine(corrupted, code)
	if st != DetectedDouble {
		t.Fatalf("status %v, want DetectedDouble", st)
	}
}

func TestDecodeLineCorrectsIndependentWords(t *testing.T) {
	// One bit flipped in each of two different words: both corrected,
	// because each word has its own SECDED code.
	r := sim.NewRNG(4)
	line := randLine(r)
	code := EncodeLine(line)
	corrupted := make([]byte, LineSize)
	copy(corrupted, line)
	corrupted[0] ^= 0x10  // word 0
	corrupted[32] ^= 0x01 // word 4
	out, st := DecodeLine(corrupted, code)
	if st != CorrectedData {
		t.Fatalf("status %v, want CorrectedData", st)
	}
	if !bytes.Equal(out, line) {
		t.Fatal("per-word correction failed")
	}
}

func TestEncodeLinePanicsOnWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeLine(63 bytes) did not panic")
		}
	}()
	EncodeLine(make([]byte, 63))
}

func TestLineCodeUint64AndMinikey(t *testing.T) {
	var code LineCode
	for i := range code {
		code[i] = uint8(i + 1)
	}
	if code.Uint64() != 0x0807060504030201 {
		t.Fatalf("Uint64 = %#x", code.Uint64())
	}
	if code.Minikey() != 1 {
		t.Fatalf("Minikey = %d, want LSB byte (word 0 code)", code.Minikey())
	}
}

func TestPageKeyMatchesAssembler(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := sim.NewRNG(seed)
		page := make([]byte, PageSize)
		r.FillBytes(page)
		want := PageKey(page, DefaultKeyOffsets)

		// Feed every line of the page to the assembler in a random order.
		a := NewKeyAssembler(DefaultKeyOffsets)
		for _, li := range r.Perm(PageSize / LineSize) {
			a.Observe(li, EncodeLine(page[li*LineSize:(li+1)*LineSize]))
		}
		return a.Ready() && a.Key() == want
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyAssemblerMissingAndReset(t *testing.T) {
	a := NewKeyAssembler(DefaultKeyOffsets)
	if len(a.Missing(nil)) != Sections {
		t.Fatalf("fresh assembler missing %v", a.Missing(nil))
	}
	page := make([]byte, PageSize)
	li := DefaultKeyOffsets.LineIndex(2)
	a.Observe(li, EncodeLine(page[li*LineSize:(li+1)*LineSize]))
	m := a.Missing(nil)
	if len(m) != Sections-1 {
		t.Fatalf("missing after one observe: %v", m)
	}
	for _, idx := range m {
		if idx == li {
			t.Fatal("observed line still reported missing")
		}
	}
	a.Reset()
	if a.Ready() || a.Key() != 0 || len(a.Missing(nil)) != Sections {
		t.Fatal("Reset did not clear assembler")
	}
}

func TestKeyAssemblerIgnoresUnsampledAndDuplicates(t *testing.T) {
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = byte(i * 7)
	}
	a := NewKeyAssembler(DefaultKeyOffsets)
	// Unsampled line: no progress.
	other := DefaultKeyOffsets.LineIndex(0) + 1
	a.Observe(other, EncodeLine(page[other*LineSize:(other+1)*LineSize]))
	if len(a.Missing(nil)) != Sections {
		t.Fatal("unsampled line advanced the key")
	}
	// Duplicate observations of a sampled line must not corrupt the key.
	li := DefaultKeyOffsets.LineIndex(0)
	code := EncodeLine(page[li*LineSize : (li+1)*LineSize])
	a.Observe(li, code)
	k1 := a.Key()
	a.Observe(li, code)
	if a.Key() != k1 {
		t.Fatal("duplicate observation changed the key")
	}
}

func TestPageKeyDiffersAcrossContent(t *testing.T) {
	r := sim.NewRNG(42)
	pageA := make([]byte, PageSize)
	pageB := make([]byte, PageSize)
	r.FillBytes(pageA)
	r.FillBytes(pageB)
	if PageKey(pageA, DefaultKeyOffsets) == PageKey(pageB, DefaultKeyOffsets) {
		t.Fatal("independent random pages produced the same key (1/2^32 chance)")
	}
}

func TestPageKeyInsensitiveToUnsampledBytes(t *testing.T) {
	// This is the source of the paper's extra false positives (Figure 8):
	// changes outside the sampled lines do not change the key.
	page := make([]byte, PageSize)
	k1 := PageKey(page, DefaultKeyOffsets)
	page[DefaultKeyOffsets.LineIndex(0)*LineSize+LineSize] ^= 0xFF // line right after sampled one
	if PageKey(page, DefaultKeyOffsets) != k1 {
		t.Fatal("unsampled byte changed the key")
	}
	// But a sampled byte must change it.
	page[DefaultKeyOffsets.LineIndex(0)*LineSize] ^= 0xFF
	if PageKey(page, DefaultKeyOffsets) == k1 {
		t.Fatal("sampled byte did not change the key")
	}
}

func TestKeyOffsetsValidate(t *testing.T) {
	if err := DefaultKeyOffsets.Validate(); err != nil {
		t.Fatalf("default offsets invalid: %v", err)
	}
	bad := KeyOffsets{0, 0, LinesPerSection, 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range offset accepted")
	}
	neg := KeyOffsets{-1, 0, 0, 0}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestKeyOffsetsLineIndex(t *testing.T) {
	o := KeyOffsets{0, 5, 10, 15}
	want := []int{0, 21, 42, 63}
	for s, w := range want {
		if got := o.LineIndex(s); got != w {
			t.Errorf("LineIndex(%d) = %d, want %d", s, got, w)
		}
	}
}

// TestKeyAssemblerWantsMissingLines checks Wants against Missing: across a
// random observation order, a line is wanted exactly when Missing lists
// it, so a caller that encodes only wanted lines builds the same key.
func TestKeyAssemblerWantsMissingLines(t *testing.T) {
	r := sim.NewRNG(9)
	page := make([]byte, PageSize)
	r.FillBytes(page)
	a := NewKeyAssembler(KeyOffsets{0, 15, 7, 3})
	for _, li := range append([]int{-1, PageSize / LineSize}, r.Perm(PageSize/LineSize)...) {
		missing := a.Missing(nil)
		for idx := -1; idx <= PageSize/LineSize; idx++ {
			if want := slices.Contains(missing, idx); a.Wants(idx) != want {
				t.Fatalf("Wants(%d) = %v, but Missing is %v", idx, !want, missing)
			}
		}
		if li >= 0 && li < PageSize/LineSize && a.Wants(li) {
			a.Observe(li, EncodeLine(page[li*LineSize:(li+1)*LineSize]))
		}
	}
	if !a.Ready() || a.Key() != PageKey(page, KeyOffsets{0, 15, 7, 3}) {
		t.Fatal("observing only wanted lines did not build the page key")
	}
}
