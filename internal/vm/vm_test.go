package vm

import (
	"bytes"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/sim"
)

func newHV(frames int) *Hypervisor {
	return NewHypervisor(uint64(frames) * mem.PageSize)
}

// TestPageIDLayout pins the packed page ID: a 32-bit VM and a 32-bit GFN,
// the unit of every scan order, shard queue and image page list.
func TestPageIDLayout(t *testing.T) {
	if n := unsafe.Sizeof(PageID{}); n != 8 {
		t.Fatalf("PageID is %d bytes, want 8", n)
	}
}

func TestSoftFaultZeroFill(t *testing.T) {
	h := newHV(8)
	v := h.NewVM(4 * mem.PageSize)
	if v.Present(0) {
		t.Fatal("untouched page present")
	}
	buf := make([]byte, 16)
	if err := v.Read(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 16)) {
		t.Fatal("first-touch page not zeroed")
	}
	if h.Phys.Allocs != 1 {
		t.Fatalf("Allocs = %d after the first touch, want 1", h.Phys.Allocs)
	}
	if !v.Present(0) {
		t.Fatal("page not present after fault")
	}
	// Second access: no new fault.
	if err := v.Touch(0); err != nil {
		t.Fatal(err)
	}
	if h.Phys.Allocs != 1 {
		t.Fatal("repeat touch faulted again")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	h := newHV(8)
	v := h.NewVM(4 * mem.PageSize)
	data := []byte("pageforge")
	if _, err := v.Write(2, 100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := v.Read(2, 100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q", got)
	}
}

// TestAccessPastPageEndRejected pins the bounds contract of Read and
// Write: a range that runs past the page end, or starts before it, is an
// error returned before any fault or CoW break, and the write observer
// never sees it. A range that ends exactly at the page end is fine.
func TestAccessPastPageEndRejected(t *testing.T) {
	h := newHV(8)
	a := h.NewVM(2 * mem.PageSize)
	b := h.NewVM(2 * mem.PageSize)
	content := bytes.Repeat([]byte{3}, mem.PageSize)
	a.Write(0, 0, content)
	b.Write(0, 0, content)
	pb, _ := b.Resolve(0)
	if _, err := h.Merge(a.PageID(0), pb); err != nil {
		t.Fatal(err)
	}
	observed := 0
	h.OnWrite = func(PageID, int, []byte) { observed++ }
	allocs, unmerges := h.Phys.Allocs, h.Unmerges
	for _, c := range []struct {
		g   GFN
		off int
		n   int
	}{{1, 4000, 200}, {1, -1, 8}, {0, 4000, 200}, {0, mem.PageSize, 1}} {
		if _, err := a.Write(c.g, c.off, make([]byte, c.n)); err == nil {
			t.Fatalf("Write(%d, %d, %d bytes) accepted", c.g, c.off, c.n)
		}
		if err := a.Read(c.g, c.off, make([]byte, c.n)); err == nil {
			t.Fatalf("Read(%d, %d, %d bytes) accepted", c.g, c.off, c.n)
		}
	}
	if a.Present(1) || h.Phys.Allocs != allocs {
		t.Fatal("a rejected access faulted a page in or allocated a frame")
	}
	if !a.WriteProtected(0) || h.Unmerges != unmerges || observed != 0 {
		t.Fatal("a rejected write broke CoW or reached the write observer")
	}
	tail := bytes.Repeat([]byte{9}, 200)
	if _, err := a.Write(0, mem.PageSize-200, tail); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 200)
	if err := a.Read(0, mem.PageSize-200, got); err != nil || !bytes.Equal(got, tail) || observed != 1 {
		t.Fatalf("write ending at the page end: err %v, observed %d", err, observed)
	}
}

func TestMergeSharesFrame(t *testing.T) {
	h := newHV(16)
	a := h.NewVM(2 * mem.PageSize)
	b := h.NewVM(2 * mem.PageSize)
	content := bytes.Repeat([]byte{0xAB}, mem.PageSize)
	a.Write(0, 0, content)
	b.Write(0, 0, content)
	if h.Phys.AllocatedFrames() != 2 {
		t.Fatalf("frames before merge = %d", h.Phys.AllocatedFrames())
	}
	dst, _ := b.Resolve(0)
	n, err := h.Merge(a.PageID(0), dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != mem.PageSize {
		t.Fatalf("final compare examined %d bytes, want full page", n)
	}
	if h.Phys.AllocatedFrames() != 1 {
		t.Fatalf("frames after merge = %d, want 1", h.Phys.AllocatedFrames())
	}
	pa, _ := a.Resolve(0)
	pb, _ := b.Resolve(0)
	if pa != pb {
		t.Fatal("pages not mapped to the same frame")
	}
	if !a.WriteProtected(0) || !b.WriteProtected(0) {
		t.Fatal("merged mappings not write-protected")
	}
	if !h.Phys.Get(pa).CoW() {
		t.Fatal("merged frame not CoW")
	}
	if h.Merges != 1 {
		t.Fatalf("Merges = %d", h.Merges)
	}
	frames, mappers := h.SharedFrames()
	if frames != 1 || mappers != 2 {
		t.Fatalf("SharedFrames = %d/%d", frames, mappers)
	}
}

func TestMergeDetectsRacingWrite(t *testing.T) {
	h := newHV(16)
	a := h.NewVM(mem.PageSize)
	b := h.NewVM(mem.PageSize)
	content := bytes.Repeat([]byte{7}, mem.PageSize)
	a.Write(0, 0, content)
	b.Write(0, 0, content)
	// Diverge b after the engine decided to merge but before Merge runs.
	pb, _ := b.Resolve(0)
	h.Phys.WriteAt(pb, 0, []byte{99})
	pa, _ := a.Resolve(0)
	_ = pa
	if _, err := h.Merge(a.PageID(0), pb); err != ErrContentChanged {
		t.Fatalf("err = %v, want ErrContentChanged", err)
	}
	if h.Phys.AllocatedFrames() != 2 {
		t.Fatal("failed merge changed allocation")
	}
	// The candidate must be writable again (it was not merged).
	if a.WriteProtected(0) {
		t.Fatal("candidate left write-protected after aborted merge")
	}
}

func TestCoWBreakOnWriteToMergedPage(t *testing.T) {
	h := newHV(16)
	a := h.NewVM(mem.PageSize)
	b := h.NewVM(mem.PageSize)
	content := bytes.Repeat([]byte{0x55}, mem.PageSize)
	a.Write(0, 0, content)
	b.Write(0, 0, content)
	dst, _ := b.Resolve(0)
	if _, err := h.Merge(a.PageID(0), dst); err != nil {
		t.Fatal(err)
	}
	// Guest A writes: must get a private copy; B's view unchanged.
	allocs := h.Phys.Allocs
	broke, err := a.Write(0, 0, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if !broke {
		t.Fatal("write to merged page did not break CoW")
	}
	pa, _ := a.Resolve(0)
	pb, _ := b.Resolve(0)
	if pa == pb {
		t.Fatal("CoW break did not allocate a private frame")
	}
	bb := make([]byte, 1)
	b.Read(0, 0, bb)
	if bb[0] != 0x55 {
		t.Fatal("sharer's data corrupted by CoW break")
	}
	ab := make([]byte, 2)
	a.Read(0, 0, ab)
	if ab[0] != 1 || ab[1] != 0x55 {
		t.Fatalf("writer sees %v, want private modified copy", ab)
	}
	if h.Phys.Allocs != allocs+1 || h.Unmerges != 1 {
		t.Fatalf("CoW break allocated %d frames, Unmerges=%d; want 1 and 1", h.Phys.Allocs-allocs, h.Unmerges)
	}
}

func TestCoWBreakSoleMapperReusesFrame(t *testing.T) {
	h := newHV(16)
	a := h.NewVM(mem.PageSize)
	b := h.NewVM(mem.PageSize)
	content := bytes.Repeat([]byte{3}, mem.PageSize)
	a.Write(0, 0, content)
	b.Write(0, 0, content)
	dst, _ := b.Resolve(0)
	h.Merge(a.PageID(0), dst)
	// B breaks away first (copy), then A is the sole mapper and its write
	// should reuse the frame in place without allocating.
	b.Write(0, 0, []byte{9})
	allocs := h.Phys.Allocs
	broke, _ := a.Write(0, 0, []byte{8})
	if !broke {
		t.Fatal("sole-mapper write on protected page did not report CoW")
	}
	if h.Phys.Allocs != allocs {
		t.Fatal("sole mapper CoW break allocated a frame needlessly")
	}
	if a.WriteProtected(0) {
		t.Fatal("protection not dropped for sole mapper")
	}
}

// TestWriteSeed pins the seeded whole-page write in its three cases: onto
// a page not yet present (a soft fault), onto a protected page its writer
// maps alone (the protection drops in place) and onto a protected page
// another guest shares (a fresh private frame). Each time the writer reads
// the seed's page and the sharer keeps its bytes, Unmerges and the
// OnCoWBreak arguments are what Write reports, OnWrite sees FillPage's
// bytes, and no page is stored.
func TestWriteSeed(t *testing.T) {
	const seed = 0xC0FFEE
	want := make([]byte, mem.PageSize)
	mem.FillPage(want, seed, 0)
	for _, tc := range []struct {
		name   string
		merged bool // a and b share a protected frame before the write
		sole   bool // b breaks away first, leaving a the sole mapper
	}{
		{name: "not present"},
		{name: "sole mapper", merged: true, sole: true},
		{name: "shared", merged: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHV(16)
			a := h.NewVM(mem.PageSize)
			b := h.NewVM(mem.PageSize)
			content := bytes.Repeat([]byte{7}, mem.PageSize)
			if tc.merged {
				a.Write(0, 0, content)
				b.Write(0, 0, content)
				pb, _ := b.Resolve(0)
				if _, err := h.Merge(a.PageID(0), pb); err != nil {
					t.Fatal(err)
				}
				if tc.sole {
					b.Write(0, 0, []byte{9})
				}
			}
			old, _ := a.Resolve(0)
			var breaks [][2]mem.PFN
			h.OnCoWBreak = func(id PageID, o, fresh mem.PFN) {
				if id != a.PageID(0) {
					t.Fatalf("OnCoWBreak for %v, want the writer's page", id)
				}
				breaks = append(breaks, [2]mem.PFN{o, fresh})
			}
			var seen []byte
			h.OnWrite = func(id PageID, off int, data []byte) {
				if id != a.PageID(0) || off != 0 {
					t.Fatalf("OnWrite at %v offset %d, want the writer's page at 0", id, off)
				}
				seen = append([]byte(nil), data...)
			}
			unmerges, store := h.Unmerges, h.Phys.StoreBytes()
			broke, err := a.WriteSeed(0, seed)
			if err != nil {
				t.Fatal(err)
			}
			pa, _ := a.Resolve(0)
			wantBreaks := [][2]mem.PFN(nil)
			switch {
			case tc.sole:
				wantBreaks = [][2]mem.PFN{{old, old}}
			case tc.merged:
				wantBreaks = [][2]mem.PFN{{old, pa}}
				if pa == old {
					t.Fatal("a seeded write to a shared page did not get a private frame")
				}
			}
			if broke != tc.merged || h.Unmerges-unmerges != uint64(len(wantBreaks)) {
				t.Fatalf("CoW broke %v, Unmerges +%d; want %v, +%d", broke, h.Unmerges-unmerges, tc.merged, len(wantBreaks))
			}
			if len(breaks) != len(wantBreaks) || (len(breaks) > 0 && breaks[0] != wantBreaks[0]) {
				t.Fatalf("OnCoWBreak saw %v, want %v", breaks, wantBreaks)
			}
			if !bytes.Equal(seen, want) {
				t.Fatal("OnWrite did not see the seed's page")
			}
			got := make([]byte, mem.PageSize)
			if a.Read(0, 0, got); !bytes.Equal(got, want) || a.WriteProtected(0) {
				t.Fatal("the writer does not read the seed's page, or stays protected")
			}
			if tc.merged && !tc.sole {
				if b.Read(0, 0, got); !bytes.Equal(got, content) {
					t.Fatal("the sharer's bytes changed under a seeded write")
				}
			}
			if h.Phys.StoreBytes() != store || h.Phys.MaterializedPages() != 0 {
				t.Fatal("a seeded write stored the page")
			}
		})
	}
}

func TestThreeWayMergeRefcounts(t *testing.T) {
	h := newHV(16)
	content := bytes.Repeat([]byte{0xEE}, mem.PageSize)
	vms := []*VM{h.NewVM(mem.PageSize), h.NewVM(mem.PageSize), h.NewVM(mem.PageSize)}
	for _, v := range vms {
		v.Write(0, 0, content)
	}
	dst, _ := vms[0].Resolve(0)
	for _, v := range vms[1:] {
		if _, err := h.Merge(v.PageID(0), dst); err != nil {
			t.Fatal(err)
		}
	}
	if h.Phys.AllocatedFrames() != 1 {
		t.Fatalf("frames = %d, want 1", h.Phys.AllocatedFrames())
	}
	if h.Phys.Get(dst).Refs() != 3 {
		t.Fatalf("refs = %d, want 3", h.Phys.Get(dst).Refs())
	}
	frames, mappers := h.SharedFrames()
	if frames != 1 || mappers != 3 {
		t.Fatalf("SharedFrames = %d/%d", frames, mappers)
	}
}

func TestReleaseDropsFrame(t *testing.T) {
	h := newHV(8)
	v := h.NewVM(2 * mem.PageSize)
	v.Write(1, 0, []byte{1})
	if h.Phys.AllocatedFrames() != 1 {
		t.Fatal("setup failed")
	}
	v.Release(1)
	if h.Phys.AllocatedFrames() != 0 {
		t.Fatal("Release did not free the frame")
	}
	if v.Present(1) {
		t.Fatal("page still present after Release")
	}
	// Releasing an absent page is a no-op.
	v.Release(1)
}

func TestMadviseFlags(t *testing.T) {
	h := newHV(8)
	v := h.NewVM(8 * mem.PageSize)
	v.Madvise(2, 3, true)
	for g := GFN(0); g < 8; g++ {
		want := g >= 2 && g < 5
		if v.Mergeable(g) != want {
			t.Fatalf("gfn %d mergeable = %v, want %v", g, v.Mergeable(g), want)
		}
	}
	v.Madvise(3, 1, false)
	if v.Mergeable(3) {
		t.Fatal("un-advise failed")
	}
}

func TestMergeAlreadyMergedIsNoop(t *testing.T) {
	h := newHV(8)
	a := h.NewVM(mem.PageSize)
	b := h.NewVM(mem.PageSize)
	c := bytes.Repeat([]byte{4}, mem.PageSize)
	a.Write(0, 0, c)
	b.Write(0, 0, c)
	dst, _ := b.Resolve(0)
	h.Merge(a.PageID(0), dst)
	n, err := h.Merge(a.PageID(0), dst)
	if err != nil || n != 0 {
		t.Fatalf("re-merge: n=%d err=%v", n, err)
	}
	if h.Merges != 1 {
		t.Fatal("no-op merge counted")
	}
}

func TestMergeUnbackedCandidate(t *testing.T) {
	h := newHV(8)
	a := h.NewVM(mem.PageSize)
	b := h.NewVM(mem.PageSize)
	b.Write(0, 0, []byte{1})
	dst, _ := b.Resolve(0)
	if _, err := h.Merge(a.PageID(0), dst); err != ErrNotPresent {
		t.Fatalf("err = %v, want ErrNotPresent", err)
	}
}

// Property: after any sequence of writes/merges/CoW breaks, each VM reads
// back exactly what it last wrote to each page (isolation), and refcounts
// equal rmap sizes.
func TestIsolationUnderRandomMergeTraffic(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := sim.NewRNG(seed)
		h := newHV(256)
		const nVM, nPg = 3, 4
		var vms []*VM
		shadow := map[PageID]byte{} // last byte written at offset 0
		for i := 0; i < nVM; i++ {
			vms = append(vms, h.NewVM(nPg*mem.PageSize))
		}
		full := func(val byte) []byte { return bytes.Repeat([]byte{val}, mem.PageSize) }
		for op := 0; op < 80; op++ {
			v := vms[r.Intn(nVM)]
			g := GFN(r.Intn(nPg))
			id := v.PageID(g)
			switch {
			case r.Bool(0.6): // write a full page of some small value
				val := byte(r.Intn(4))
				if _, err := v.Write(g, 0, full(val)); err != nil {
					return false
				}
				shadow[id] = val
			default: // try to merge with any other content-equal page
				for _, o := range vms {
					for og := GFN(0); og < nPg; og++ {
						oid := o.PageID(og)
						if oid == id {
							continue
						}
						// Re-resolve each time: a successful merge frees
						// the candidate's old frame.
						src, ok := v.Resolve(g)
						if !ok {
							continue
						}
						dst, ok2 := o.Resolve(og)
						if !ok2 || dst == src {
							continue
						}
						if same, _ := h.Phys.SamePage(src, dst); same {
							if _, err := h.Merge(id, dst); err != nil {
								return false
							}
						}
					}
				}
			}
		}
		// Isolation check.
		buf := make([]byte, 1)
		for id, want := range shadow {
			if err := vms[id.VM].Read(id.GFN, 0, buf); err != nil {
				return false
			}
			if buf[0] != want {
				return false
			}
		}
		// Refcount/rmap consistency.
		for _, v := range vms {
			for g := GFN(0); g < nPg; g++ {
				if pfn, ok := v.Resolve(g); ok {
					n := len(h.Mappers(pfn))
					if h.Phys.Get(pfn).Refs() != n || h.MapperCount(pfn) != n {
						return false
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
