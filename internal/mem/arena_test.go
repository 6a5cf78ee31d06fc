package mem

import (
	"testing"

	"repro/internal/sim"
)

// TestZeroFillsCountsOnlyRealWork pins the accounting fix: fresh arena
// frames are already zero, so handing them out must not count as zero-fill
// work; only recycling a frame that actually held data does.
func TestZeroFillsCountsOnlyRealWork(t *testing.T) {
	p := New(4 * PageSize)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	if p.ZeroFills != 0 {
		t.Fatalf("ZeroFills = %d after fresh allocs, want 0", p.ZeroFills)
	}
	p.Page(a)[7] = 0xAA
	p.DecRef(a)
	p.DecRef(b)
	// Both freed frames are marked dirty on free, so the recycled alloc
	// (whichever frame it hands back) must scrub exactly once.
	c, _ := p.Alloc()
	if p.ZeroFills != 1 {
		t.Fatalf("ZeroFills = %d after one recycled alloc, want 1", p.ZeroFills)
	}
	if p.Page(c)[7] != 0 {
		t.Fatal("recycled frame leaked previous contents")
	}
}

// TestAllocForCopySkipsZeroing pins the alloc-for-copy path: the frame is
// not scrubbed (the caller fully overwrites it), and ZeroFills stays put.
func TestAllocForCopySkipsZeroing(t *testing.T) {
	p := New(4 * PageSize)
	src, _ := p.Alloc()
	for i := range p.Page(src) {
		p.Page(src)[i] = byte(i)
	}
	victim, _ := p.Alloc()
	p.Page(victim)[0] = 0xEE
	p.DecRef(victim)

	zf := p.ZeroFills
	dst, err := p.AllocForCopy()
	if err != nil {
		t.Fatal(err)
	}
	if p.ZeroFills != zf {
		t.Fatalf("AllocForCopy zeroed: ZeroFills %d -> %d", zf, p.ZeroFills)
	}
	p.CopyPage(dst, src)
	same, n := p.SamePage(dst, src)
	if !same || n != PageSize {
		t.Fatalf("copy mismatch: same=%v bytes=%d", same, n)
	}
	// The copied-over frame held data; if it is ever freed and re-allocated
	// with Alloc, it must be scrubbed again.
	p.DecRef(dst)
	back, _ := p.Alloc()
	if p.ZeroFills != zf+1 {
		t.Fatalf("recycled copy frame not scrubbed (ZeroFills = %d, want %d)", p.ZeroFills, zf+1)
	}
	if !p.IsZero(back) {
		t.Fatal("recycled copy frame leaked contents")
	}
}

// samePagesByte and comparePagesByte are the byte-wise reference loops the
// word-at-a-time comparators must match: same verdict, same memcmp sign,
// same bytes-examined count.
func samePagesByte(pa, pb []byte) (bool, int) {
	for i := 0; i < PageSize; i++ {
		if pa[i] != pb[i] {
			return false, i + 1
		}
	}
	return true, PageSize
}

func comparePagesByte(pa, pb []byte) (int, int) {
	for i := 0; i < PageSize; i++ {
		if pa[i] != pb[i] {
			if pa[i] < pb[i] {
				return -1, i + 1
			}
			return 1, i + 1
		}
	}
	return 0, PageSize
}

// TestWordCompareMatchesByteReference exhaustively checks the word-at-a-time
// compare against the byte-wise reference at every divergence offset within
// a word, at word boundaries, at page start/end, and on equal pages: the
// memcmp sign and the bytes-examined count must be identical.
func TestWordCompareMatchesByteReference(t *testing.T) {
	p := New(2 * PageSize)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	pa, pb := p.Page(a), p.Page(b)
	r := sim.NewRNG(7)

	positions := []int{0, 1, 6, 7, 8, 9, 15, 16, 63, 64, 100, 2048, 4087, 4088, 4094, 4095}
	check := func() {
		t.Helper()
		wc, wn := p.ComparePage(a, b)
		ws, wsn := p.SamePage(a, b)
		bc, bn := comparePagesByte(pa, pb)
		bs, bsn := samePagesByte(pa, pb)
		if wc != bc || wn != bn {
			t.Fatalf("ComparePage: word (%d,%d) != byte (%d,%d)", wc, wn, bc, bn)
		}
		if ws != bs || wsn != bsn {
			t.Fatalf("SamePage: word (%v,%d) != byte (%v,%d)", ws, wsn, bs, bsn)
		}
	}

	for trial := 0; trial < 20; trial++ {
		r.FillBytes(pa)
		copy(pb, pa)
		check() // equal pages
		for _, pos := range positions {
			copy(pb, pa)
			for pb[pos] == pa[pos] {
				pb[pos] = byte(r.Intn(256))
			}
			if pos+1 < PageSize {
				// Trailing garbage after the divergence must not matter.
				pb[pos+1] = byte(r.Intn(256))
			}
			check()
		}
		// Random multi-byte divergence.
		r.FillBytes(pb)
		check()
	}
}

// TestComparePageZeroAlloc enforces the hot-path allocation contract for
// steady-state comparisons.
func TestComparePageZeroAlloc(t *testing.T) {
	p := New(2 * PageSize)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	p.Page(b)[PageSize-1] = 1 // worst case: full-page scan
	if n := testing.AllocsPerRun(100, func() {
		p.ComparePage(a, b)
		p.SamePage(a, b)
	}); n != 0 {
		t.Fatalf("%v allocs per compare, want 0", n)
	}
}

var compareSink int

// BenchmarkComparePage contrasts the word-at-a-time early-exit comparison
// against the byte-wise reference on the two interesting shapes: identical
// pages (full 4KB examined) and pages diverging midway.
func BenchmarkComparePage(b *testing.B) {
	eq := make([]byte, PageSize)
	sim.NewRNG(2).FillBytes(eq)
	same := append([]byte(nil), eq...)
	mid := append([]byte(nil), eq...)
	mid[PageSize/2] ^= 1
	for _, bc := range []struct {
		name string
		cmp  func(pa, pb []byte) (int, int)
	}{{"word", comparePages}, {"byte", comparePagesByte}} {
		b.Run(bc.name+"/equal", func(b *testing.B) {
			b.SetBytes(PageSize)
			for i := 0; i < b.N; i++ {
				compareSink, _ = bc.cmp(eq, same)
			}
		})
		b.Run(bc.name+"/mid-diverge", func(b *testing.B) {
			b.SetBytes(PageSize / 2)
			for i := 0; i < b.N; i++ {
				compareSink, _ = bc.cmp(eq, mid)
			}
		})
	}
}

func TestFirstNonZero(t *testing.T) {
	for _, size := range []int{0, 1, 7, 8, 9, 63, 64, PageSize} {
		b := make([]byte, size)
		if got := FirstNonZero(b); got != -1 {
			t.Fatalf("len %d all-zero: got %d, want -1", size, got)
		}
		for _, pos := range []int{0, 1, 6, 7, 8, size / 2, size - 2, size - 1} {
			if pos < 0 || pos >= size {
				continue
			}
			for i := range b {
				b[i] = 0
			}
			b[pos] = 3
			if got := FirstNonZero(b); got != pos {
				t.Fatalf("len %d nonzero at %d: got %d", size, pos, got)
			}
		}
	}
}

// TestArenaAliasingRules pins the §10 aliasing contract: Page returns a
// window whose capacity ends at the frame boundary (appends cannot spill
// into a neighbour), neighbouring frames are disjoint, and a frame's
// backing offset is stable across freelist reuse.
func TestArenaAliasingRules(t *testing.T) {
	p := New(4 * PageSize)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	pa, pb := p.Page(a), p.Page(b)
	if len(pa) != PageSize || cap(pa) != PageSize {
		t.Fatalf("Page len/cap = %d/%d, want %d/%d", len(pa), cap(pa), PageSize, PageSize)
	}
	pa[PageSize-1] = 0x11
	if pb[0] != 0 {
		t.Fatal("write to frame a visible in frame b")
	}
	if &p.ReadLine(a, 3)[0] != &pa[3*LineSize] {
		t.Fatal("ReadLine does not alias the Page view")
	}
	// Offset stability: free and re-allocate; the PFN maps to the same
	// backing window, so a stale view aliases the recycled frame's bytes.
	p.DecRef(a)
	a2, _ := p.Alloc()
	if a2 != a {
		t.Fatalf("freelist reuse handed %d, want %d", a2, a)
	}
	if &p.Page(a2)[0] != &pa[0] {
		t.Fatal("frame offset moved across freelist reuse")
	}
}

// TestDeferredFreesCanonicalOrder pins the parallel-pass contract: frames
// freed in any order while deferred surface to the allocator lowest-PFN
// first, exactly like New's initial layout.
func TestDeferredFreesCanonicalOrder(t *testing.T) {
	p := New(8 * PageSize)
	var pfns []PFN
	for i := 0; i < 6; i++ {
		pfn, _ := p.Alloc()
		pfns = append(pfns, pfn)
	}
	p.BeginDeferredFrees()
	for _, i := range []int{3, 0, 5, 1} { // scrambled release order
		p.DecRef(pfns[i])
	}
	if p.FreeFrames() != 2 {
		t.Fatalf("FreeFrames = %d while deferred, want 2 (only never-allocated)", p.FreeFrames())
	}
	p.EndDeferredFrees()
	if p.FreeFrames() != 6 {
		t.Fatalf("FreeFrames = %d after flush, want 6", p.FreeFrames())
	}
	for _, want := range []PFN{0, 1, 3, 5} {
		got, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("post-flush alloc = %d, want %d (canonical ascending order)", got, want)
		}
	}
}
