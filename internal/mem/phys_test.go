package mem

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/sim"
)

func TestAllocZeroesAndCounts(t *testing.T) {
	p := New(16 * PageSize)
	if p.TotalFrames() != 16 {
		t.Fatalf("TotalFrames = %d, want 16", p.TotalFrames())
	}
	pfn, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range p.Page(pfn) {
		if b != 0 {
			t.Fatalf("fresh frame byte %d = %d, want 0", i, b)
		}
	}
	if p.AllocatedFrames() != 1 || p.FreeFrames() != 15 {
		t.Fatalf("alloc accounting wrong: %d/%d", p.AllocatedFrames(), p.FreeFrames())
	}
	if p.Get(pfn).Refs() != 1 {
		t.Fatalf("fresh frame refs = %d, want 1", p.Get(pfn).Refs())
	}
}

func TestAllocExhaustion(t *testing.T) {
	p := New(2 * PageSize)
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(); err != ErrOutOfFrames {
		t.Fatalf("third alloc err = %v, want ErrOutOfFrames", err)
	}
}

func TestRefcountLifecycle(t *testing.T) {
	p := New(4 * PageSize)
	pfn, _ := p.Alloc()
	p.IncRef(pfn)
	p.IncRef(pfn)
	if p.Get(pfn).Refs() != 3 {
		t.Fatalf("refs = %d, want 3", p.Get(pfn).Refs())
	}
	p.DecRef(pfn)
	p.DecRef(pfn)
	if p.AllocatedFrames() != 1 {
		t.Fatal("frame freed while references remain")
	}
	p.DecRef(pfn)
	if p.AllocatedFrames() != 0 {
		t.Fatal("frame not freed at refcount zero")
	}
	if p.Frees != 1 {
		t.Fatalf("Frees = %d, want 1", p.Frees)
	}
}

func TestFreedFrameIsRezeroedOnReuse(t *testing.T) {
	p := New(1 * PageSize)
	pfn, _ := p.Alloc()
	p.WriteAt(pfn, 100, []byte{0xAB})
	p.DecRef(pfn)
	pfn2, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if p.Page(pfn2)[100] != 0 {
		t.Fatal("reused frame leaked previous contents (information leak)")
	}
}

func TestAccessUnallocatedPanics(t *testing.T) {
	p := New(4 * PageSize)
	pfn, _ := p.Alloc()
	p.DecRef(pfn)
	defer func() {
		if recover() == nil {
			t.Fatal("access to freed frame did not panic")
		}
	}()
	p.Page(pfn)
}

func TestPeakTracksHighWater(t *testing.T) {
	p := New(8 * PageSize)
	var pfns []PFN
	for i := 0; i < 5; i++ {
		pfn, _ := p.Alloc()
		pfns = append(pfns, pfn)
	}
	for _, pfn := range pfns {
		p.DecRef(pfn)
	}
	if p.PeakFrames() != 5 {
		t.Fatalf("peak = %d, want 5", p.PeakFrames())
	}
	if p.AllocatedFrames() != 0 {
		t.Fatalf("allocated = %d, want 0", p.AllocatedFrames())
	}
}

func TestSameAndComparePage(t *testing.T) {
	p := New(4 * PageSize)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	same, n := p.SamePage(a, b)
	if !same || n != PageSize {
		t.Fatalf("identical zero pages: same=%v n=%d", same, n)
	}
	p.WriteAt(b, 10, []byte{5})
	same, n = p.SamePage(a, b)
	if same {
		t.Fatal("different pages reported same")
	}
	if n != 11 {
		t.Fatalf("divergence cost = %d bytes, want 11 (compare stops at first diff)", n)
	}
	cmp, _ := p.ComparePage(a, b)
	if cmp >= 0 {
		t.Fatalf("ComparePage = %d, want negative (0x00 < 0x05)", cmp)
	}
	cmp, _ = p.ComparePage(b, a)
	if cmp <= 0 {
		t.Fatalf("reversed ComparePage = %d, want positive", cmp)
	}
	cmp, n = p.ComparePage(a, a)
	if cmp != 0 || n != PageSize {
		t.Fatalf("self compare = %d/%d", cmp, n)
	}
}

func TestComparePageAntisymmetricQuick(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := sim.NewRNG(seed)
		p := New(2 * PageSize)
		a, _ := p.Alloc()
		b, _ := p.Alloc()
		pg := make([]byte, PageSize)
		r.FillBytes(pg)
		p.WriteAt(a, 0, pg)
		// Perturb b at a random position half the time; otherwise b is
		// either an equal private copy or shares a's slot.
		switch {
		case r.Bool(0.5):
			pg[r.Intn(PageSize)] ^= byte(1 + r.Intn(255))
			p.WriteAt(b, 0, pg)
		case r.Bool(0.5):
			p.WriteAt(b, 0, pg)
		default:
			p.CopyPage(b, a)
		}
		ab, _ := p.ComparePage(a, b)
		ba, _ := p.ComparePage(b, a)
		return ab == -ba
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCopyPageAndIsZero(t *testing.T) {
	p := New(4 * PageSize)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	if !p.IsZero(a) {
		t.Fatal("fresh frame not zero")
	}
	p.WriteAt(a, 0, []byte{1})
	if p.IsZero(a) {
		t.Fatal("dirty frame reported zero")
	}
	p.CopyPage(b, a)
	if same, _ := p.SamePage(a, b); !same {
		t.Fatal("CopyPage did not copy")
	}
}

func TestCoWFlag(t *testing.T) {
	p := New(2 * PageSize)
	pfn, _ := p.Alloc()
	if p.Get(pfn).CoW() {
		t.Fatal("fresh frame marked CoW")
	}
	p.SetCoW(pfn, true)
	if !p.Get(pfn).CoW() {
		t.Fatal("SetCoW had no effect")
	}
	// CoW state must not survive free/realloc.
	p.DecRef(pfn)
	pfn2, _ := p.Alloc()
	if p.Get(pfn2).CoW() {
		t.Fatal("CoW flag leaked across reallocation")
	}
}

func TestReadLineBounds(t *testing.T) {
	p := New(PageSize)
	pfn, _ := p.Alloc()
	p.WriteAt(pfn, 64, []byte{0xCD})
	line := p.ReadLine(pfn, 1)
	if len(line) != LineSize || line[0] != 0xCD {
		t.Fatal("ReadLine returned wrong slice")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range line index did not panic")
		}
	}()
	p.ReadLine(pfn, LinesPerPage)
}

func TestAddressHelpers(t *testing.T) {
	pfn := PFN(3)
	if pfn.Base() != 3*PageSize {
		t.Fatalf("Base = %d", pfn.Base())
	}
	if pfn.LineAddr(2) != 3*PageSize+128 {
		t.Fatalf("LineAddr = %d", pfn.LineAddr(2))
	}
	a := Addr(3*PageSize + 130)
	if PFNOf(a) != 3 {
		t.Fatalf("PFNOf = %d", PFNOf(a))
	}
	if LineIndexOf(a) != 2 {
		t.Fatalf("LineIndexOf = %d", LineIndexOf(a))
	}
}

// TestFrameSize pins the per-frame metadata at 8 bytes: the machine keeps
// one Frame per frame of its capacity.
func TestFrameSize(t *testing.T) {
	if n := unsafe.Sizeof(Frame{}); n != 8 {
		t.Fatalf("Frame is %d bytes, want 8", n)
	}
}

// TestFrameFlagsBesideRefcount pins the packed Frame word: the CoW and
// dirty flags survive refcount changes up to the 30-bit limit, one more
// mapping panics instead of spilling into the flags, and the last DecRef
// leaves a free frame dirty and not CoW.
func TestFrameFlagsBesideRefcount(t *testing.T) {
	p := New(2 * PageSize)
	pfn, _ := p.AllocForCopy() // dirty
	p.SetCoW(pfn, true)
	f := p.Get(pfn)
	f.word += maxRefs - 2 // as if maxRefs-1 more mappings had been added
	p.IncRef(pfn)
	if f.Refs() != maxRefs || !f.CoW() || !f.dirty() {
		t.Fatalf("at the limit: refs %d, CoW %v, dirty %v", f.Refs(), f.CoW(), f.dirty())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("IncRef past the 30-bit refcount was accepted")
			}
		}()
		p.IncRef(pfn)
	}()
	if f.Refs() != maxRefs || !f.CoW() || !f.dirty() {
		t.Fatal("a rejected IncRef changed the frame")
	}
	f.word -= maxRefs - 1 // back to one mapping
	p.SetCoW(pfn, false)
	if f.Refs() != 1 || f.CoW() || !f.dirty() {
		t.Fatalf("after SetCoW(false): refs %d, CoW %v, dirty %v", f.Refs(), f.CoW(), f.dirty())
	}
	p.SetCoW(pfn, true)
	p.DecRef(pfn)
	if p.Allocated(pfn) || f.CoW() || !f.dirty() {
		t.Fatalf("a freed frame: allocated %v, CoW %v, dirty %v", p.Allocated(pfn), f.CoW(), f.dirty())
	}
	if again, _ := p.Alloc(); again != pfn || f.dirty() || f.Refs() != 1 || p.ZeroFills != 1 {
		t.Fatalf("a reused dirty frame: pfn %d, dirty %v, refs %d, %d zero fills", again, f.dirty(), f.Refs(), p.ZeroFills)
	}
}
