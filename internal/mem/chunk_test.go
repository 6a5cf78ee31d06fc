package mem

import (
	"bytes"
	"reflect"
	"testing"
)

// allocN allocates n frames lowest-first and fails the test on exhaustion.
func allocN(t *testing.T, p *Phys, n int) []PFN {
	t.Helper()
	out := make([]PFN, n)
	for i := range out {
		pfn, err := p.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		out[i] = pfn
	}
	return out
}

// backedChunks reports how many store chunks are backed.
func backedChunks(p *Phys) int {
	n := 0
	for _, c := range p.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// TestArenaChunkBoundaryAliasing pins the §10 view contract across a
// chunk boundary and at the end of a short last chunk. With 130 frames each
// written once in PFN order, frame i owns slot i+1: frames 63 and 64 then
// sit in different chunks, and frames 128 and 129 fill the two-slot last
// chunk. A slot recycled from a scrubbed frame must come back clean.
func TestArenaChunkBoundaryAliasing(t *testing.T) {
	const frames = 2*chunkSlots + 2
	p := New(frames * PageSize)
	for _, pfn := range allocN(t, p, frames) {
		p.WriteAt(pfn, 8, []byte{byte(pfn) | 1})
	}
	for _, pfn := range []PFN{chunkSlots - 1, chunkSlots, frames - 1} {
		pg := p.Page(pfn)
		if len(pg) != PageSize || cap(pg) != PageSize {
			t.Fatalf("frame %d: Page len/cap = %d/%d, want %d/%d", pfn, len(pg), cap(pg), PageSize, PageSize)
		}
	}
	lo, hi := p.Page(chunkSlots-1), p.Page(chunkSlots)
	if &lo[0] != &p.chunks[0][(chunkSlots-1)*PageSize] || &hi[0] != &p.chunks[1][0] {
		t.Fatal("frames 63 and 64 do not straddle the chunk boundary")
	}
	p.WriteAt(chunkSlots-1, PageSize-1, []byte{0x11})
	p.WriteAt(chunkSlots, 0, []byte{0x22})
	if hi[0] != 0x22 || lo[PageSize-1] != 0x11 || hi[1] != 0 || lo[PageSize-2] != 0 {
		t.Fatal("frames 63 and 64 overlap across the chunk boundary")
	}
	if got := len(p.chunks[len(p.chunks)-1]); got != 2*PageSize {
		t.Fatalf("short last chunk is %d bytes, want %d", got, 2*PageSize)
	}
	// Scrubbing a frame on reuse releases its slot; the next frame that
	// needs a slot for a partial write reuses it and must not see the old
	// bytes.
	for _, pfn := range []PFN{chunkSlots - 1, chunkSlots} {
		p.DecRef(pfn)
		again, _ := p.Alloc()
		if again != pfn {
			t.Fatalf("freelist reuse handed %d, want %d", again, pfn)
		}
		if !p.IsZero(again) {
			t.Fatalf("recycled frame %d not scrubbed", pfn)
		}
		p.WriteAt(again, 100, []byte{0x55})
		pg := p.Page(again)
		if pg[100] != 0x55 || FirstNonZero(pg[:100]) >= 0 || FirstNonZero(pg[101:]) >= 0 {
			t.Fatalf("frame %d reused a slot that still held old bytes", pfn)
		}
	}
	checkSlots(t, p)
}

// TestArenaChunksBackLazily checks that the store backs chunks only as
// slots are first handed out: allocating frames and writing zeroes back
// nothing, writing 65 distinct pages backs exactly two chunks, and freeing
// the frames releases every slot to the slot freelist but no chunk.
func TestArenaChunksBackLazily(t *testing.T) {
	p := New(10 * chunkSlots * PageSize)
	pfns := allocN(t, p, chunkSlots+1)
	p.WriteAt(pfns[0], 0, make([]byte, PageSize))
	p.WriteAt(pfns[1], 9, make([]byte, 17))
	if n := backedChunks(p); n != 0 {
		t.Fatalf("%d chunks backed by allocation and zero writes, want 0", n)
	}
	for i, pfn := range pfns {
		p.WriteAt(pfn, i, []byte{1})
	}
	for i, c := range p.chunks {
		if want := i < 2; (c != nil) != want {
			t.Fatalf("chunk %d backed = %v, want %v", i, c != nil, want)
		}
	}
	for _, pfn := range pfns {
		p.DecRef(pfn)
	}
	if p.chunks[0] == nil || p.chunks[1] == nil || len(p.freeSlots) != len(pfns) {
		t.Fatalf("freeing %d frames left %d slots free (chunks backed %d), want every slot free and both chunks kept",
			len(pfns), len(p.freeSlots), backedChunks(p))
	}
	checkSlots(t, p)
}

// TestFreedSlotsBackRewrites pins the store bound under churn: freeing
// frames that hold distinct pages releases their slots, so writing as many
// new distinct pages, into other frames, reuses those slots and backs no
// new chunk.
func TestFreedSlotsBackRewrites(t *testing.T) {
	const n = 2*chunkSlots + 5
	p := New(4 * n * PageSize)
	first := allocN(t, p, n)
	for i, pfn := range first {
		p.WriteAt(pfn, 0, []byte{byte(i), byte(i >> 8), 1})
	}
	chunks := backedChunks(p)
	for _, pfn := range first {
		p.DecRef(pfn)
	}
	// Allocate past the freed frames so the rewrites land in frames that
	// never held data.
	second := allocN(t, p, 2*n)[n:]
	for i, pfn := range second {
		p.WriteAt(pfn, 100, []byte{byte(i), byte(i >> 8), 2})
	}
	if got := backedChunks(p); got != chunks {
		t.Fatalf("%d chunks backed after rewriting %d freed pages, want %d", got, n, chunks)
	}
	checkSlots(t, p)
}

// TestPhysStateChunkedRoundTrip restores a captured image into a fresh
// Phys and checks it is identical: allocated data, frames that share a
// slot, distinct slots holding equal bytes, freed frames and frames on the
// zero page. The image holds each distinct content once, numbered by the
// lowest PFN holding it, and freed frames read as zero; after the restore
// every distinct content owns one slot shared by all its frames, and both
// machines must go on allocating and scrubbing identically.
func TestPhysStateChunkedRoundTrip(t *testing.T) {
	const frames = 5*chunkSlots + 3
	src := New(frames * PageSize)
	// Frames of the first three chunks' worth hold distinct data; one more
	// allocated frame is still all zero.
	pfns := allocN(t, src, 3*chunkSlots+1)
	for i, pfn := range pfns[:3*chunkSlots] {
		src.WriteAt(pfn, i%PageSize, []byte{byte(i + 1)})
	}
	// Two frames share a slot with their source; another is rewritten to
	// hold its neighbour's bytes in a slot of its own.
	src.CopyPage(pfns[5], pfns[4])
	src.CopyPage(pfns[6], pfns[4])
	src.WriteAt(pfns[7], 0, bytes.Clone(src.Page(pfns[8])))
	// Free the second chunk's worth except its last frame, and the third's
	// except its first.
	for _, pfn := range pfns[chunkSlots : 2*chunkSlots-1] {
		src.DecRef(pfn)
	}
	for _, pfn := range pfns[2*chunkSlots+1 : 3*chunkSlots] {
		src.DecRef(pfn)
	}
	src.SetCoW(pfns[0], true)
	checkSlots(t, src)

	st, err := src.State()
	if err != nil {
		t.Fatal(err)
	}
	// Frames 0..63 hold 61 distinct pages (5 and 6 share 4's, 7 equals
	// 8's); frames 127 and 128 hold two more.
	if got, want := len(st.Pages), (chunkSlots-1)*PageSize; got != want {
		t.Fatalf("image holds %d content bytes, want %d", got, want)
	}
	seen := int32(0)
	for pfn, k := range st.PageIndex {
		live := src.Allocated(PFN(pfn)) && !src.IsZero(PFN(pfn))
		if !live && k != 0 {
			t.Fatalf("frame %d reads as zero or is free, but holds content %d", pfn, k)
		}
		if live && k > seen+1 {
			t.Fatalf("frame %d holds content %d before content %d was seen", pfn, k, seen+1)
		}
		seen = max(seen, k)
	}
	if k := st.PageIndex[pfns[4]]; st.PageIndex[pfns[5]] != k || st.PageIndex[pfns[6]] != k {
		t.Fatal("frames sharing a slot captured different contents")
	}
	if st.PageIndex[pfns[7]] != st.PageIndex[pfns[8]] {
		t.Fatal("equal pages in distinct slots captured twice")
	}

	dst := New(frames * PageSize)
	if err := dst.SetState(st); err != nil {
		t.Fatal(err)
	}
	checkRestored(t, dst, st)
	if dst.frames[pfns[7]].slot != dst.frames[pfns[8]].slot {
		t.Fatal("restore did not share equal pages")
	}
	if got, want := backedChunks(dst), 1; got != want {
		t.Fatalf("%d chunks backed after restore, want %d", got, want)
	}
	back, err := dst.State()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatal("State → SetState → State is not identical")
	}

	// Both machines hand out the same frames with the same scrub work and
	// the same bytes.
	for i := 0; i < 3*chunkSlots; i++ {
		a, errA := src.Alloc()
		b, errB := dst.Alloc()
		if a != b || (errA == nil) != (errB == nil) {
			t.Fatalf("alloc %d diverged: %d/%v vs %d/%v", i, a, errA, b, errB)
		}
		if !bytes.Equal(src.Page(a), dst.Page(b)) {
			t.Fatalf("frame %d bytes diverged after restore", a)
		}
	}
	if src.ZeroFills != dst.ZeroFills {
		t.Fatalf("ZeroFills diverged: %d vs %d", src.ZeroFills, dst.ZeroFills)
	}
	checkSlots(t, src)
	checkSlots(t, dst)
}

// TestPhysSetStateOverwritesBackedChunks restores an image over a machine
// whose frames hold data: stale bytes must be replaced by the image's
// (zeroes included), the slot store must be rebuilt rather than leak the
// old slots, and the restored machine must equal a fresh one restored from
// the same image.
func TestPhysSetStateOverwritesBackedChunks(t *testing.T) {
	const frames = 2 * chunkSlots
	img := New(frames * PageSize)
	kept, _ := img.Alloc()
	img.WriteAt(kept, 3, []byte{0x5A})
	st, err := img.State()
	if err != nil {
		t.Fatal(err)
	}
	live := New(frames * PageSize)
	for i, pfn := range allocN(t, live, frames) {
		live.WriteAt(pfn, 9, []byte{byte(i) | 0x80})
	}
	if err := live.SetState(st); err != nil {
		t.Fatal(err)
	}
	checkSlots(t, live)
	if live.Page(kept)[3] != 0x5A || live.Page(kept)[9] != 0 {
		t.Fatal("restore did not replace the kept frame's bytes")
	}
	for pfn := kept + 1; pfn < frames; pfn++ {
		if live.frames[pfn].slot != zeroSlot {
			t.Fatalf("restore left frame %d off the zero page", pfn)
		}
	}
	if n := backedChunks(live); n != 1 {
		t.Fatalf("%d chunks backed after restoring one nonzero frame, want 1", n)
	}
	fresh := New(frames * PageSize)
	if err := fresh.SetState(st); err != nil {
		t.Fatal(err)
	}
	a, errA := live.State()
	b, errB := fresh.State()
	if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
		t.Fatal("restore over a live machine differs from restore into a fresh one")
	}
}

// TestPhysSetStateRejectsMalformedImage feeds SetState images State never
// writes: a ragged content array, an index past the contents, a free
// frame holding content, a refcount no Frame holds, and a free list naming
// a frame twice or past the machine. Each is an error that leaves the
// machine as it was.
func TestPhysSetStateRejectsMalformedImage(t *testing.T) {
	p := New(4 * PageSize)
	pfn, _ := p.Alloc()
	p.WriteAt(pfn, 0, []byte{7})
	good, err := p.State()
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]func(st *PhysState){
		"ragged pages":          func(st *PhysState) { st.Pages = st.Pages[:PageSize-1] },
		"index past pages":      func(st *PhysState) { st.PageIndex[pfn] = 2 },
		"negative index":        func(st *PhysState) { st.PageIndex[pfn] = -1 },
		"free frame content":    func(st *PhysState) { st.PageIndex[pfn+1] = 1 },
		"negative refcount":     func(st *PhysState) { st.Frames[pfn].Refs = -1 },
		"refcount past 30 bits": func(st *PhysState) { st.Frames[pfn].Refs = maxRefs + 1 },
		"free frame twice":      func(st *PhysState) { st.Free = append(st.Free, st.Free[0]) },
		"free frame past end":   func(st *PhysState) { st.Free[0] = 4 },
	} {
		st, _ := p.State()
		bad(&st)
		if err := p.SetState(st); err == nil {
			t.Fatalf("%s: SetState accepted the image", name)
		}
		if back, _ := p.State(); !reflect.DeepEqual(back, good) {
			t.Fatalf("%s: a rejected image changed the machine", name)
		}
	}
}
