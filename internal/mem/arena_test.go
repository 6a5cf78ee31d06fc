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

// TestBlockCompareMatchesByteReference checks the block compare against
// the byte-wise references on random pages, with the divergence placed on
// every edge where the traversal changes gear: the end of the word
// prologue, each bytes.Equal block boundary, the page's last byte, and
// random offsets. FirstNonZero gets the same positions.
func TestBlockCompareMatchesByteReference(t *testing.T) {
	pa, pb := make([]byte, PageSize), make([]byte, PageSize)
	r := sim.NewRNG(11)
	positions := []int{0, 7, 8, 63, 64, 65, 255, 256, 257, 4094, 4095}
	for edge := cmpPrologue; edge < PageSize; edge += cmpBlock {
		positions = append(positions, edge-1, edge, edge+1)
	}
	for trial := 0; trial < 50; trial++ {
		positions = append(positions, r.Intn(PageSize))
	}
	zero := make([]byte, PageSize)
	for trial := 0; trial < 10; trial++ {
		r.FillBytes(pa)
		for _, pos := range positions {
			copy(pb, pa)
			for pb[pos] == pa[pos] {
				pb[pos] = byte(r.Intn(256))
			}
			r.FillBytes(pb[min(pos+1, PageSize):])
			c, n := comparePages(pa, pb)
			if bc, bn := comparePagesByte(pa, pb); c != bc || n != bn {
				t.Fatalf("diverge at %d: comparePages (%d,%d) != byte (%d,%d)", pos, c, n, bc, bn)
			}
			same, sn := samePages(pa, pb)
			if bs, bn := samePagesByte(pa, pb); same != bs || sn != bn {
				t.Fatalf("diverge at %d: samePages (%v,%d) != byte (%v,%d)", pos, same, sn, bs, bn)
			}
			clear(zero)
			zero[pos] = byte(1 + r.Intn(255))
			if got := FirstNonZero(zero); got != pos {
				t.Fatalf("FirstNonZero with byte %d set: got %d", pos, got)
			}
		}
	}
}

var compareSink int

// BenchmarkComparePage contrasts the block comparison against the
// byte-wise reference on three shapes: identical pages (full 4KB
// examined), pages diverging at byte 3 (inside the word prologue, where
// most tree compares exit) and pages diverging midway.
func BenchmarkComparePage(b *testing.B) {
	eq := make([]byte, PageSize)
	sim.NewRNG(2).FillBytes(eq)
	same := append([]byte(nil), eq...)
	early := append([]byte(nil), eq...)
	early[3] ^= 1
	mid := append([]byte(nil), eq...)
	mid[PageSize/2] ^= 1
	for _, bc := range []struct {
		name string
		cmp  func(pa, pb []byte) (int, int)
	}{{"block", comparePages}, {"byte", comparePagesByte}} {
		for _, shape := range []struct {
			name  string
			other []byte
			bytes int64
		}{{"equal", same, PageSize}, {"early-diverge", early, 4}, {"mid-diverge", mid, PageSize / 2}} {
			b.Run(bc.name+"/"+shape.name, func(b *testing.B) {
				b.SetBytes(shape.bytes)
				for i := 0; i < b.N; i++ {
					compareSink, _ = bc.cmp(eq, shape.other)
				}
			})
		}
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

// TestContentKeyGroupsByContent checks the digest's contract: frames with
// equal contents share a key, and changing any single byte changes it.
func TestContentKeyGroupsByContent(t *testing.T) {
	p := New(2 * PageSize)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	sim.NewRNG(5).FillBytes(p.Page(a))
	copy(p.Page(b), p.Page(a))
	if p.ContentKey(a) != p.ContentKey(b) {
		t.Fatal("equal pages have different keys")
	}
	for _, pos := range []int{0, 7, 8, 63, 64, 2048, PageSize - 1} {
		copy(p.Page(b), p.Page(a))
		p.Page(b)[pos] ^= 0x80
		if p.ContentKey(a) == p.ContentKey(b) {
			t.Fatalf("flipping byte %d left the key unchanged", pos)
		}
	}
}
