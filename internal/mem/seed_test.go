package mem

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"reflect"
	"sync"
	"testing"
)

// seededPhys allocates n frames and seeds each with seed i+1.
func seededPhys(t *testing.T, n int) (*Phys, []PFN) {
	t.Helper()
	p := New(uint64(2*n) * PageSize)
	pfns := allocN(t, p, n)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	seedPages(p, pfns, seeds)
	return p, pfns
}

// seedPages seeds frame pfns[i] with seeds[i], sizing the seed table first,
// as the boot image builder does.
func seedPages(p *Phys, pfns []PFN, seeds []uint64) {
	p.ReserveSeeds(len(pfns))
	for i, pfn := range pfns {
		p.SeedPage(pfn, seeds[i])
	}
}

// wantPage is the page FillPage writes for seed.
func wantPage(seed uint64) []byte {
	pg := make([]byte, PageSize)
	FillPage(pg, seed, 0)
	return pg
}

// refPage is the page generator as a plain loop over the whole page: the
// reference FillPage's ranges and zero prefix are checked against.
func refPage(seed uint64) []byte {
	page := make([]byte, PageSize)
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	prefix := (64 + int(z%1025)) &^ 7
	x := z | 1
	for i := prefix; i+8 <= len(page); i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(page[i:], x*0x2545F4914F6CDD1D)
	}
	return page
}

// TestFillPageMatchesWholePage checks the range-addressed generator against
// the whole-page loop: for thousands of seeds and every 8-aligned range
// (every range of each seed's page for a few seeds, one random range for
// the others), FillPage writes exactly those bytes of the page, and the
// zero prefix it reports is the index of the page's first nonzero byte. A
// few unaligned ranges check the ragged ends.
func TestFillPageMatchesWholePage(t *testing.T) {
	check := func(seed uint64, want []byte, off, n int) {
		t.Helper()
		dst := make([]byte, n)
		zp := FillPage(dst, seed, off)
		if !bytes.Equal(dst, want[off:off+n]) {
			t.Fatalf("seed %d: FillPage(%d bytes at %d) differs from the page", seed, n, off)
		}
		wantZP := FirstNonZero(want)
		if wantZP < 0 {
			wantZP = PageSize
		}
		if zp != wantZP {
			t.Fatalf("seed %d: zero prefix %d, want %d", seed, zp, wantZP)
		}
	}
	for seed := uint64(0); seed < 4; seed++ {
		want := refPage(seed)
		for off := 0; off <= PageSize; off += 8 {
			for end := off; end <= PageSize; end += 8 {
				dst := make([]byte, end-off)
				FillPage(dst, seed, off)
				if !bytes.Equal(dst, want[off:end]) {
					t.Fatalf("seed %d: FillPage [%d, %d) differs from the page", seed, off, end)
				}
			}
		}
	}
	x := uint64(88172645463325252)
	for i := 0; i < 5000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		seed := x
		if i%2 == 0 {
			seed = uint64(i) // small, nearby seeds as the image builder uses
		}
		want := refPage(seed)
		off := int(x>>20) % (PageSize / 8) * 8
		check(seed, want, off, int(x>>40)%((PageSize-off)/8+1)*8)
		if i%10 == 0 {
			uoff := int(x>>8) % PageSize
			check(seed, want, uoff, int(x>>32)%(PageSize-uoff+1))
		}
	}
}

// TestSeedPagesGenerateOnFirstRead pins when a seeded frame materializes —
// gets stored bytes — by counting MaterializedPages and backed chunks:
// never for reads of any kind, for a frame freed, wholly overwritten or
// restored over, for a copy, for State, or for partial writes that a patch
// holds; once for each write that would patch a seventeenth line and for
// each Page view of a seeded frame.
func TestSeedPagesGenerateOnFirstRead(t *testing.T) {
	check := func(t *testing.T, p *Phys, want int) {
		t.Helper()
		checkSlots(t, p)
		if got := p.MaterializedPages(); got != uint64(want) {
			t.Fatalf("%d pages materialized, want %d", got, want)
		}
	}
	t.Run("seeding backs nothing", func(t *testing.T) {
		p, pfns := seededPhys(t, chunkSlots+1)
		if n := backedChunks(p); n != 0 {
			t.Fatalf("%d chunks backed by seeding, want 0", n)
		}
		// Every read leaves the store unbacked.
		pg := make([]byte, PageSize)
		for i, pfn := range pfns {
			p.ReadAt(pfn, 0, pg)
			if !bytes.Equal(pg, wantPage(uint64(i+1))) || p.IsZero(pfn) ||
				p.ContentKey(pfn) != contentKey(pg) || !bytes.Equal(p.ReadLine(pfn, 63), pg[PageSize-LineSize:]) {
				t.Fatalf("frame %d does not read seed %d's page", pfn, i+1)
			}
			if c, _ := p.ComparePage(pfn, pfns[0]); (c == 0) != (i == 0) {
				t.Fatalf("frame %d compares %d with frame %d", pfn, c, pfns[0])
			}
		}
		if _, err := p.State(); err != nil {
			t.Fatal(err)
		}
		if n := backedChunks(p); n != 0 {
			t.Fatalf("%d chunks backed by reads, want 0", n)
		}
		check(t, p, 0)
	})
	t.Run("freed unread", func(t *testing.T) {
		p, pfns := seededPhys(t, 3)
		p.DecRef(pfns[1])
		check(t, p, 0)
		again, _ := p.Alloc()
		p.WriteAt(again, 7, []byte{9})
		if pg := p.Page(again); pg[7] != 9 || FirstNonZero(pg[:7]) >= 0 || FirstNonZero(pg[8:]) >= 0 {
			t.Fatal("a frame freed while seeded does not read as zero when reused")
		}
		check(t, p, 0)
	})
	t.Run("whole-page write", func(t *testing.T) {
		p, pfns := seededPhys(t, 2)
		src := bytes.Repeat([]byte{0xA5}, PageSize)
		p.WriteAt(pfns[0], 0, src)
		p.WriteAt(pfns[1], 0, make([]byte, PageSize))
		if !bytes.Equal(p.Page(pfns[0]), src) || !p.IsZero(pfns[1]) {
			t.Fatal("a whole-page write over a seeded frame reads back wrong")
		}
		check(t, p, 0)
	})
	t.Run("partial write", func(t *testing.T) {
		p, pfns := seededPhys(t, 2)
		p.WriteAt(pfns[1], 100, []byte{0xEE})
		want := wantPage(2)
		want[100] = 0xEE
		got := make([]byte, PageSize)
		if p.ReadAt(pfns[1], 0, got); !bytes.Equal(got, want) {
			t.Fatal("a partial write over a seeded frame lost the generated bytes")
		}
		if n := backedChunks(p); n != 0 || p.PatchBytes() != patchChunkBlocks*LineSize {
			t.Fatalf("a patched line backs %d chunks and %d patch bytes, want none and one chunk of one-line blocks", n, p.PatchBytes())
		}
		check(t, p, 0)
		if !bytes.Equal(p.Page(pfns[1]), want) {
			t.Fatal("a view of a patched frame lost its patch")
		}
		if n := backedChunks(p); n != 1 {
			t.Fatalf("%d chunks backed by one materialized page, want 1", n)
		}
		check(t, p, 1)
	})
	t.Run("sixteen lines patch, seventeen materialize", func(t *testing.T) {
		p, pfns := seededPhys(t, 3)
		p.CopyPage(pfns[2], pfns[1])
		want := wantPage(2)
		// Each write dirties lines 4j and 4j+1, highest first, so that the
		// lines a patch holds move up as lower ones come in.
		for j := patchLines/2 - 1; j >= 0; j-- {
			at := (4*j+1)*LineSize - 3
			src := bytes.Repeat([]byte{byte(j + 1)}, 6)
			p.WriteAt(pfns[1], at, src)
			copy(want[at:], src)
		}
		check(t, p, 0)
		if q := p.patchOf(p.frames[pfns[1]].slot); bits.OnesCount64(q.mask) != patchLines {
			t.Fatalf("the patch holds %d lines, want %d", bits.OnesCount64(q.mask), patchLines)
		}
		got := make([]byte, PageSize)
		if p.ReadAt(pfns[1], 0, got); !bytes.Equal(got, want) {
			t.Fatal("a sixteen-line patch reads back wrong")
		}
		if p.ReadAt(pfns[2], 0, got); !bytes.Equal(got, wantPage(2)) {
			t.Fatal("patching a frame changed the frame that shared its seed")
		}
		p.WriteAt(pfns[1], PageSize-1, []byte{0x5A})
		want[PageSize-1] = 0x5A
		check(t, p, 1)
		if got := p.Page(pfns[1]); !bytes.Equal(got, want) {
			t.Fatal("a patch that outgrew its block materialized wrong")
		}
		check(t, p, 1)
	})
	t.Run("copy then read both", func(t *testing.T) {
		p, pfns := seededPhys(t, 2)
		p.CopyPage(pfns[1], pfns[0])
		check(t, p, 0)
		if same, _ := p.SamePage(pfns[0], pfns[1]); !same {
			t.Fatal("a copy of a seeded frame differs from it")
		}
		check(t, p, 0)
		// A view materializes each frame it is taken of: the copy keeps
		// the seed until it is viewed too.
		for i, pfn := range pfns {
			if !bytes.Equal(p.Page(pfn), wantPage(1)) {
				t.Fatalf("frame %d does not read the seeded page", pfn)
			}
			check(t, p, i+1)
		}
	})
	t.Run("restore over seeds", func(t *testing.T) {
		p, pfns := seededPhys(t, 3)
		donor := New(uint64(2*len(pfns)) * PageSize)
		d := allocN(t, donor, len(pfns))
		donor.WriteAt(d[0], 0, []byte{1})
		st, err := donor.State()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SetState(st); err != nil {
			t.Fatal(err)
		}
		check(t, p, 0)
		if back, err := p.State(); err != nil || !reflect.DeepEqual(back, st) {
			t.Fatalf("restore over seeded frames does not read back the image (error %v)", err)
		}
		check(t, p, 0)
	})
	t.Run("state round trip", func(t *testing.T) {
		p, pfns := seededPhys(t, 5)
		p.CopyPage(pfns[4], pfns[0])
		st, err := p.State()
		if err != nil {
			t.Fatal(err)
		}
		if got := len(st.Pages) / PageSize; got != 4 {
			t.Fatalf("State holds %d contents, want 4", got)
		}
		check(t, p, 0)
		if err := p.SetState(st); err != nil {
			t.Fatal(err)
		}
		checkRestored(t, p, st)
		if back, err := p.State(); err != nil || !reflect.DeepEqual(back, st) {
			t.Fatalf("State → SetState → State is not identical (error %v)", err)
		}
		check(t, p, 0)
	})
	t.Run("deferred window reads in place", func(t *testing.T) {
		p, pfns := seededPhys(t, 4)
		p.DecRef(pfns[2])
		p.BeginDeferredFrees()
		pg := make([]byte, PageSize)
		for i, pfn := range []PFN{pfns[0], pfns[1], pfns[3]} {
			if p.ReadAt(pfn, 0, pg); !bytes.Equal(pg, wantPage([]uint64{1, 2, 4}[i])) {
				t.Fatalf("frame %d does not read its seed's page", pfn)
			}
		}
		p.EndDeferredFrees()
		check(t, p, 0)
	})
}

// TestSeededComparesConcurrentInDeferredWindow has two goroutines compare,
// hash and read seeded frames inside a deferred-free window, the way the
// workers of a sharded scan pass do, and checks every verdict against the
// stored pages. Run under -race it fails if a seeded read writes shared
// state.
func TestSeededComparesConcurrentInDeferredWindow(t *testing.T) {
	const n = 24
	p, pfns := seededPhys(t, n)
	pages := make([][]byte, n)
	for i := range pages {
		pages[i] = wantPage(uint64(i + 1))
	}
	p.BeginDeferredFrees()
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var key [8]byte
			for i := w; i < n; i += 2 {
				for j := range pfns {
					c, nb := p.ComparePage(pfns[i], pfns[j])
					wc, wn := comparePages(pages[i], pages[j])
					same, sn := p.SamePage(pfns[j], pfns[i])
					if c != wc || nb != wn || same != (wc == 0) || sn != wn {
						errs <- "seeded compare differs from the stored pages"
						return
					}
				}
				p.ReadAt(pfns[i], 0, key[:])
				if !bytes.Equal(key[:], pages[i][:8]) || p.IsZero(pfns[i]) || p.ContentKey(pfns[i]) != contentKey(pages[i]) {
					errs <- "seeded read differs from the stored page"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	p.EndDeferredFrees()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if backedChunks(p) != 0 || p.MaterializedPages() != 0 {
		t.Fatal("seeded reads inside the window stored bytes")
	}
}

// TestReadLineCacheHoldsRecentLines walks seeded frames line by line the
// way the PageForge engine does, holding the line views of lineCacheSize
// frames with distinct seeds at once: each view must still read its own
// page's line after the other frames' lines were read, and the walk must
// store nothing.
func TestReadLineCacheHoldsRecentLines(t *testing.T) {
	p, pfns := seededPhys(t, lineCacheSize+2)
	for round := 0; round < 2; round++ {
		for i := 0; i < LinesPerPage; i++ {
			frames := pfns[round : round+lineCacheSize]
			held := make([][]byte, len(frames))
			for k, pfn := range frames {
				held[k] = p.ReadLine(pfn, i)
			}
			for k := range frames {
				want := wantPage(uint64(round + k + 1))[i*LineSize : (i+1)*LineSize]
				if !bytes.Equal(held[k], want) {
					t.Fatalf("round %d line %d: the held line of frame %d changed under later reads", round, i, frames[k])
				}
			}
		}
	}
	if backedChunks(p) != 0 || p.MaterializedPages() != 0 {
		t.Fatal("ReadLine of seeded frames stored bytes")
	}
}

// seedWindow is the largest window seededDiffRef generates at once.
const seedWindow = 512

// seededDiffRef is the windowed form of seededDiff, kept as its reference:
// after the shared zero prefix (a patched seed's cut at its first patched
// line) it compares windows that double from a line up to seedWindow
// bytes, generating each seeded page's window into a buffer on the stack
// and laying its patch over it, with bytes.Equal, and walks words only
// inside the first unequal window. It walks two frames on one seed in full.
func (p *Phys) seededDiffRef(sa, sb int32) (int, byte, byte) {
	var ga, gb pageGen
	var pa, pb []byte
	za, zb := PageSize, PageSize
	if sa < 0 {
		ga = newPageGen(p.seed(sa))
		za = min(ga.zeroPrefix(), p.patchOf(sa).firstLine())
	} else {
		pa = p.view(sa)
	}
	if sb < 0 {
		gb = newPageGen(p.seed(sb))
		zb = min(gb.zeroPrefix(), p.patchOf(sb).firstLine())
	} else {
		pb = p.view(sb)
	}
	m := min(za, zb)
	if pa != nil {
		if i := FirstNonZero(pa[:m]); i >= 0 {
			return i, pa[i], 0
		}
	}
	if pb != nil {
		if i := FirstNonZero(pb[:m]); i >= 0 {
			return i, 0, pb[i]
		}
	}
	off := m &^ 7
	if pa == nil {
		ga.skipTo(off)
	}
	if pb == nil {
		gb.skipTo(off)
	}
	var bufA, bufB [seedWindow]byte
	for w := LineSize; off < PageSize; w = min(2*w, seedWindow) {
		w = min(w, PageSize-off)
		wa, wb := bufA[:w], bufB[:w]
		if pa != nil {
			wa = pa[off : off+w]
		} else {
			ga.fill(wa)
			p.overlay(wa, sa, off)
		}
		if pb != nil {
			wb = pb[off : off+w]
		} else {
			gb.fill(wb)
			p.overlay(wb, sb, off)
		}
		if !bytes.Equal(wa, wb) {
			for j := 0; ; j += 8 {
				if i := wordDiff(wa, wb, j); i >= 0 {
					return off + i, wa[i], wb[i]
				}
			}
		}
		off += w
	}
	return -1, 0, 0
}

// TestSeededDiffMatchesWindowedReference holds seededDiff to its windowed
// reference on seed/seed and seed/stored pairs, both ways round: distinct
// seeds, equal seeds in distinct entries, and stored pages that equal a
// seed's page but for one byte (inside the zero prefix, at its end, at a
// window boundary, deep in the stream, or in the last word) or not at all,
// and stored pages of another seed or of zeroes. Patched seeds meet plain,
// patched and stored frames, on the same seed and on others: patches that
// rewrite a seed's own bytes, put a nonzero byte in its zero prefix, zero
// its first nonzero bytes, fill all sixteen lines of a block, or change the
// page's last byte or five lines at once. Index and bytes must agree, and
// so must the byte loop on pages built apart from the store.
func TestSeededDiffMatchesWindowedReference(t *testing.T) {
	const seeds = 40
	p := New(4 * seeds * PageSize)
	seeded := allocN(t, p, seeds)
	twins := allocN(t, p, seeds)
	patched := allocN(t, p, seeds)
	vals := make([]uint64, seeds)
	for i := range vals {
		vals[i] = uint64(i * 7 % 13) // values recur, so equal seeds meet
	}
	seedPages(p, seeded, vals)
	seedPages(p, twins, vals)
	seedPages(p, patched, vals)
	want := make(map[PFN][]byte)
	for i := range seeds {
		want[seeded[i]], want[twins[i]] = wantPage(vals[i]), wantPage(vals[i])
	}
	var stored []PFN
	x := uint64(0x9E3779B97F4A7C15)
	for i := range seeds {
		pg := wantPage(vals[i])
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		zp := FirstNonZero(pg)
		switch i % 7 {
		case 0: // equal to the seed's page
		case 1:
			pg[int(x%uint64(zp))] = byte(x>>8) | 1 // inside the zero prefix
		case 2:
			pg[zp] ^= byte(x>>8) | 1 // the first nonzero byte
		case 3:
			pg[(zp+LineSize)&^(LineSize-1)] ^= 0x80 // a window boundary
		case 4:
			pg[PageSize-1-int(x%64)] ^= byte(x>>16) | 1 // the last word
		case 5:
			pg = wantPage(vals[(i+1)%seeds] + 100) // another seed's page
		default:
			pg = make([]byte, PageSize)
			pg[PageSize-8+int(x%8)] = 1 // zeroes but for the last word
		}
		pfn := allocN(t, p, 1)[0]
		p.WriteAt(pfn, 0, pg)
		stored = append(stored, pfn)
		want[pfn] = pg
	}
	for i, pfn := range patched {
		pg := want[twins[i]]
		pg = append([]byte(nil), pg...)
		write := func(off int, src []byte) {
			p.WriteAt(pfn, off, src)
			copy(pg[off:], src)
		}
		zp := FirstNonZero(pg)
		switch i % 6 {
		case 0: // the seed's own bytes
			write(zp+100, pg[zp+100:zp+140])
		case 1: // a nonzero byte inside the zero prefix
			write(i%zp, []byte{byte(i) | 1})
		case 2: // zeroes over the first nonzero bytes
			write(zp&^7, make([]byte, LineSize))
		case 3: // sixteen lines, the last the page's last
			for l := 0; l < patchLines; l++ {
				at := (4*l+3)*LineSize + l
				write(at, []byte{pg[at] ^ 0x11})
			}
		case 4: // the last byte
			write(PageSize-1, []byte{pg[PageSize-1] ^ 0x40})
		default: // five lines
			write(1000+i, bytes.Repeat([]byte{byte(i)}, 256))
		}
		want[pfn] = pg
	}
	check := func(a, b PFN) {
		t.Helper()
		sa, sb := p.frames[a].slot, p.frames[b].slot
		i, ba, bb := p.seededDiff(sa, sb)
		ri, rba, rbb := p.seededDiffRef(sa, sb)
		if i != ri || ba != rba || bb != rbb {
			t.Fatalf("frames %d,%d: seededDiff (%d, %#x, %#x), reference (%d, %#x, %#x)", a, b, i, ba, bb, ri, rba, rbb)
		}
		pa, pb := want[a], want[b]
		if wi := firstDiff(pa, pb); wi != i || (i >= 0 && (pa[i] != ba || pb[i] != bb)) {
			t.Fatalf("frames %d,%d: seededDiff index %d, byte loop %d", a, b, i, wi)
		}
	}
	for i := range seeds {
		for j := range seeds {
			check(seeded[i], twins[j])
			check(seeded[i], stored[j])
			check(stored[j], seeded[i])
			check(patched[i], seeded[j])
			check(seeded[j], patched[i])
			check(patched[i], patched[j])
			check(patched[i], stored[j])
			check(stored[j], patched[i])
		}
	}
	if p.MaterializedPages() != 0 || backedChunks(p) != 1 { // the stored pages' chunk
		t.Fatal("seeded compares or patches materialized a page")
	}
}
