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

// TestArenaChunkBoundaryAliasing pins the §10 aliasing contract across a
// chunk boundary (frames 63 and 64 live in different chunks) and at the end
// of a short last chunk (130 frames: two full chunks plus two frames).
func TestArenaChunkBoundaryAliasing(t *testing.T) {
	const frames = 2*chunkFrames + 2
	p := New(frames * PageSize)
	allocN(t, p, frames)
	for _, pfn := range []PFN{chunkFrames - 1, chunkFrames, frames - 1} {
		pg := p.Page(pfn)
		if len(pg) != PageSize || cap(pg) != PageSize {
			t.Fatalf("frame %d: Page len/cap = %d/%d, want %d/%d", pfn, len(pg), cap(pg), PageSize, PageSize)
		}
	}
	lo, hi := p.Page(chunkFrames-1), p.Page(chunkFrames)
	lo[PageSize-1] = 0x11
	hi[0] = 0x22
	if hi[0] != 0x22 || lo[PageSize-1] != 0x11 || hi[1] != 0 || lo[PageSize-2] != 0 {
		t.Fatal("frames 63 and 64 overlap across the chunk boundary")
	}
	if got := len(p.chunks[len(p.chunks)-1]); got != 2*PageSize {
		t.Fatalf("short last chunk is %d bytes, want %d", got, 2*PageSize)
	}
	// Offset stability across freelist reuse on both sides of the boundary.
	for _, pfn := range []PFN{chunkFrames - 1, chunkFrames} {
		before := &p.Page(pfn)[0]
		p.DecRef(pfn)
		again, _ := p.Alloc()
		if again != pfn {
			t.Fatalf("freelist reuse handed %d, want %d", again, pfn)
		}
		if &p.Page(again)[0] != before {
			t.Fatalf("frame %d window moved across freelist reuse", pfn)
		}
		if !p.IsZero(again) {
			t.Fatalf("recycled frame %d not scrubbed", pfn)
		}
	}
}

// TestArenaChunksBackLazily checks that only chunks up to the high-water
// PFN are backed, and that freeing frames does not release a chunk.
func TestArenaChunksBackLazily(t *testing.T) {
	p := New(10 * chunkFrames * PageSize)
	for i, c := range p.chunks {
		if c != nil {
			t.Fatalf("chunk %d backed before any allocation", i)
		}
	}
	pfns := allocN(t, p, chunkFrames+1) // frames 0..64: chunks 0 and 1
	for i, c := range p.chunks {
		if want := i < 2; (c != nil) != want {
			t.Fatalf("chunk %d backed = %v, want %v", i, c != nil, want)
		}
	}
	for _, pfn := range pfns {
		p.DecRef(pfn)
	}
	if p.chunks[0] == nil || p.chunks[1] == nil {
		t.Fatal("freeing frames released their chunk")
	}
}

// TestPhysStateChunkedRoundTrip restores a captured image into a fresh
// Phys and checks it is byte-identical: allocated data, a freed dirty
// frame that still holds bytes, and chunks that were never backed. Every
// allocated frame's chunk must be backed after the restore, and both
// machines must go on allocating and scrubbing identically.
func TestPhysStateChunkedRoundTrip(t *testing.T) {
	const frames = 5*chunkFrames + 3
	src := New(frames * PageSize)
	// Frames of chunks 0-2 hold data; chunk 3 holds one allocated frame
	// that is still all zero, which the restore must back all the same.
	pfns := allocN(t, src, 3*chunkFrames+1)
	for i, pfn := range pfns[:3*chunkFrames] {
		src.Page(pfn)[i%PageSize] = byte(i + 1)
	}
	// Free every frame of chunk 1 except its last, and all of chunk 2
	// except its first: chunk 2's freed frames keep nonzero bytes.
	for _, pfn := range pfns[chunkFrames : 2*chunkFrames-1] {
		src.DecRef(pfn)
	}
	for _, pfn := range pfns[2*chunkFrames+1 : 3*chunkFrames] {
		src.DecRef(pfn)
	}
	src.SetCoW(pfns[0], true)

	st, err := src.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Arena) != frames*PageSize {
		t.Fatalf("image arena is %d bytes, want %d", len(st.Arena), frames*PageSize)
	}
	if FirstNonZero(st.Arena[3*chunkFrames*PageSize:]) >= 0 {
		t.Fatal("unbacked chunks captured nonzero bytes")
	}

	dst := New(frames * PageSize)
	if err := dst.SetState(st); err != nil {
		t.Fatal(err)
	}
	for pfn := PFN(0); pfn < frames; pfn++ {
		if dst.Allocated(pfn) && dst.chunks[pfn/chunkFrames] == nil {
			t.Fatalf("allocated frame %d has no backed chunk after restore", pfn)
		}
	}
	for i := 4; i < len(dst.chunks); i++ {
		if dst.chunks[i] != nil {
			t.Fatalf("all-zero unallocated chunk %d backed by restore", i)
		}
	}
	back, err := dst.State()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatal("State → SetState → State is not identical")
	}

	// Both machines hand out the same frames with the same scrub work and
	// the same bytes, across backed and unbacked chunks alike.
	for i := 0; i < 3*chunkFrames; i++ {
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
}

// TestPhysSetStateOverwritesBackedChunks restores an image over a machine
// whose chunks are already backed: stale bytes must be replaced by the
// image's (zeroes included) and existing windows must stay in place.
func TestPhysSetStateOverwritesBackedChunks(t *testing.T) {
	const frames = 2 * chunkFrames
	img := New(frames * PageSize)
	st, err := img.State()
	if err != nil {
		t.Fatal(err)
	}
	live := New(frames * PageSize)
	pfns := allocN(t, live, frames)
	view := live.Page(pfns[chunkFrames+5])
	view[9] = 0x7F
	if err := live.SetState(st); err != nil {
		t.Fatal(err)
	}
	if view[9] != 0 {
		t.Fatal("restore left stale bytes in a backed chunk")
	}
	pfn, _ := live.Alloc()
	if pfn != 0 || &live.Page(pfn)[0] != &live.chunks[0][0] {
		t.Fatal("restore moved frame windows")
	}
}

// TestBackPrefixMatchesLazyBacking backs an arena prefix on several
// goroutines (run it under -race), then allocates the prefix's frames: the
// machine must equal one whose chunks take backed lazily, and no chunk past
// the prefix may be backed.
func TestBackPrefixMatchesLazyBacking(t *testing.T) {
	const frames = 5*chunkFrames + 9
	for _, n := range []int{0, 1, chunkFrames - 1, chunkFrames, chunkFrames + 1, 3*chunkFrames + 7, frames, frames + 100} {
		for workers := 1; workers <= 7; workers++ {
			lazy := New(frames * PageSize)
			eager := New(frames * PageSize)
			eager.BackPrefix(n, workers)
			for i, c := range eager.chunks {
				if want := i*chunkFrames < n; (c != nil) != want {
					t.Fatalf("n=%d workers=%d: chunk %d backed = %v, want %v", n, workers, i, c != nil, want)
				}
			}
			alloc := min(n, frames)
			for i, pfn := range allocN(t, lazy, alloc) {
				lazy.Page(pfn)[i%PageSize] = byte(i + 1)
			}
			for i, pfn := range allocN(t, eager, alloc) {
				eager.Page(pfn)[i%PageSize] = byte(i + 1)
			}
			ls, err := lazy.State()
			if err != nil {
				t.Fatal(err)
			}
			es, err := eager.State()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ls, es) {
				t.Fatalf("n=%d workers=%d: State differs from lazy backing", n, workers)
			}
			for i := range lazy.chunks {
				if (lazy.chunks[i] != nil) != (eager.chunks[i] != nil) {
					t.Fatalf("n=%d workers=%d: chunk %d backed differently from lazy backing", n, workers, i)
				}
			}
		}
	}
}
