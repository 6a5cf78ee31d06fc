// Package mem models the host physical memory of the simulated server:
// 4KB frames with reference counts, zero-fill-on-allocate semantics (the
// hypervisor zeroes pages before handing them to a guest, which is what
// makes "mergeable zero" pages exist at all), and copy-on-write sharing
// state used by same-page merging.
//
// The simulator stores frame contents the way the machine it models wants
// them stored: each distinct page once. Every frame points at a slot, a
// refcounted 4KB window in a store of lazily allocated 64-slot chunks, and
// frames that hold only zeroes point at one shared zero page that needs no
// backing at all. CopyPage shares the source's slot instead of copying
// bytes; a write to a frame whose slot is shared first gives the frame a
// private slot (copy-on-write at host level, invisible to the simulated
// machine, whose own CoW state lives in Frame). A slot lives exactly as
// long as an allocated frame points at it: freeing a frame releases its
// slot and puts it on the zero page, and released slots are recycled
// through a freelist, so the store is bounded by the distinct pages the
// allocated frames hold.
//
// A frame can also point at a seed instead of a slot (SeedPage, SeedPages):
// it then reads as the page FillPage generates from the seed, and no store
// slot holds its bytes. Seed table entries are recycled like slots, so the
// table is bounded by the frames seeded at once. Reads answer seeded
// frames from their seeds, into storage the reader owns, and no read
// stores them: ReadAt into the caller's buffer; ReadLine from a small
// cache of partly generated pages; SamePage and ComparePage by generating
// only the words they compare, starting past both pages' zero prefixes;
// IsZero from the seed's zero prefix; ContentKey and State from the
// generator's stream. A seeded frame materializes — moves into a fresh
// slot of its own that its bytes are generated into — only when a partial
// write (WriteAt of less than a whole page) or a Page view needs its bytes
// stored; a whole-page write drops the seed. The generator is pure:
// FillPage(dst, seed, off) writes any range of the page, equal seeds give
// equal pages, and it reports the page's exact zero prefix, so concurrent
// readers may read seeds at once.
//
// The per-frame bookkeeping is flat and holds no pointers, so the garbage
// collector has nothing in it to scan: a 12-byte Frame and a 4-byte slot
// refcount per frame, and one bit per frame in the free-frame bitmap, from
// which Alloc hands out the lowest free frame.
//
// All mutation goes through Phys methods: Alloc, AllocForCopy, CopyPage,
// WriteAt, SeedPage, SeedPages and SetState. Page and ReadLine return
// read-only views that stay valid until the next write to that frame, and
// ReadAt copies bytes out (see DESIGN.md §10 for the store's rules).
package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// PageSize is the frame size in bytes.
const PageSize = 4096

// LineSize is the cache-line size in bytes.
const LineSize = 64

// LinesPerPage is the number of cache lines in a frame.
const LinesPerPage = PageSize / LineSize

// chunkSlots is the number of slots one store chunk backs (256 KiB).
const chunkSlots = 64

// zeroSlot is the slot number of the shared zero page. Real slots are
// numbered from 1, so a zero Frame points at the zero page.
const zeroSlot = 0

// zeroPage backs every frame that points at zeroSlot. Nothing writes it:
// a write to such a frame first gives the frame a private slot.
var zeroPage [PageSize]byte

// PFN is a physical frame number. Frame f spans physical addresses
// [f*PageSize, (f+1)*PageSize).
type PFN uint64

// Addr is a byte-granularity physical address.
type Addr uint64

// Base reports the first physical address of the frame.
func (p PFN) Base() Addr { return Addr(p) * PageSize }

// LineAddr reports the physical address of the i-th line of the frame.
func (p PFN) LineAddr(i int) Addr { return p.Base() + Addr(i*LineSize) }

// PFNOf reports the frame containing the address.
func PFNOf(a Addr) PFN { return PFN(a / PageSize) }

// LineIndexOf reports the within-page line index of the address.
func LineIndexOf(a Addr) int { return int(a % PageSize / LineSize) }

// ErrOutOfFrames is returned by the Alloc variants when no free frames
// remain. Exhaustion is an expected condition under overcommit — callers
// (the hypervisor's fault and CoW-break paths) stall, reclaim, and retry
// rather than treating it as fatal.
var ErrOutOfFrames = errors.New("mem: out of physical frames")

// Frame is the per-frame metadata the hypervisor tracks: 12 bytes, with no
// pointer for the garbage collector to scan.
type Frame struct {
	refs  int32 // number of guest mappings pointing at this frame
	cow   bool  // write-protected shared frame (merged or pre-CoW)
	dirty bool  // bytes may be nonzero from a previous owner
	// slot holds the frame's bytes: zeroSlot for all zeroes, s >= 1 for
	// store slot s, and -k for seed k, whose bytes are never stored.
	slot int32
}

// Refs reports the number of mappings sharing the frame.
func (f *Frame) Refs() int { return int(f.refs) }

// CoW reports whether the frame is write-protected copy-on-write.
func (f *Frame) CoW() bool { return f.cow }

// Phys is the physical memory of the machine.
type Phys struct {
	frames []Frame

	// The free set: bit i of freeBits[w] is set when frame w*64+i is free.
	// No word below freeLow has a bit set, and nfree counts the set bits.
	// Alloc hands out the lowest free PFN, so allocation order is a
	// function of the free set alone, never of release order — the
	// property that makes a parallel scan pass's frame assignment
	// bit-identical to a sequential one.
	freeBits []uint64
	freeLow  int
	nfree    int

	// The slot store. Slot s >= 1 is window (s-1)%chunkSlots of
	// chunks[(s-1)/chunkSlots]; a chunk is nil until a slot in it is first
	// handed out. slotRefs[s] counts the frames pointing at slot s. Only
	// allocated frames, and freed frames still pending in a deferred-free
	// window, point at a real slot; every other free frame is on the zero
	// page. Slots below nextSlot with no referencing frame are on
	// freeSlots; slots from nextSlot up have never been used and are zero.
	// Every slot handed out is backed and holds bytes.
	chunks    [][]byte
	slotRefs  []int32
	freeSlots []int32
	nextSlot  int32

	// The seed table. Seed k >= 1 stands for the page FillPage writes from
	// seeds[k], shared by the seedRefs[k] frames pointing at -k, and nseeds
	// counts the seeds some frame points at. Entries no frame points at are
	// on freeSeeds and are handed out again before the table grows, so the
	// table never holds more entries than frames were ever seeded at once;
	// it is dropped once no frame points at a seed. materialized counts the
	// seeded frames given stored bytes (own).
	seeds        []uint64
	seedRefs     []int32
	freeSeeds    []int32
	nseeds       int
	materialized uint64

	// lines serves ReadLine on seeded frames; nil until the first such read.
	lines *lineCache

	allocated int
	peak      int

	// Deferred-free mode: while a sharded scan pass runs workers in
	// parallel, frames released by merges are parked under mu and their
	// slots released in canonical PFN order at the pass join, so the slot
	// freelist never depends on worker interleaving.
	mu         sync.Mutex
	deferFrees bool
	pending    []PFN

	// Statistics of interest to the evaluation.
	Allocs     uint64 // total successful Alloc calls
	AllocFails uint64 // Alloc calls that found no free frame
	Frees      uint64 // frames returned to the free set
	ZeroFills  uint64 // frames actually zeroed on allocation
}

// New creates a physical memory of the given capacity in bytes, rounded
// down to whole frames. Every frame starts free and on the zero page, so a
// new machine holds no backing at all.
func New(capacity uint64) *Phys {
	n := int(capacity / PageSize)
	p := &Phys{
		frames:   make([]Frame, n),
		freeBits: make([]uint64, (n+63)/64),
		nfree:    n,
		chunks:   make([][]byte, (n+chunkSlots-1)/chunkSlots),
		slotRefs: make([]int32, n+1),
		nextSlot: 1,
	}
	for w := range p.freeBits {
		p.freeBits[w] = ^uint64(0)
	}
	if tail := n % 64; tail != 0 {
		p.freeBits[len(p.freeBits)-1] = 1<<tail - 1
	}
	return p
}

// markFree returns pfn to the free set.
func (p *Phys) markFree(pfn PFN) {
	w := int(pfn / 64)
	p.freeBits[w] |= 1 << (pfn % 64)
	p.nfree++
	p.freeLow = min(p.freeLow, w)
}

// freeList returns the free frames in descending PFN order, as PhysState
// records them, or nil when none is free.
func (p *Phys) freeList() []PFN {
	if p.nfree == 0 {
		return nil
	}
	out := make([]PFN, 0, p.nfree)
	for w := len(p.freeBits) - 1; w >= p.freeLow; w-- {
		for word := p.freeBits[w]; word != 0; {
			b := 63 - bits.LeadingZeros64(word)
			out = append(out, PFN(w*64+b))
			word &^= 1 << b
		}
	}
	return out
}

// TotalFrames reports the machine's frame count.
func (p *Phys) TotalFrames() int { return len(p.frames) }

// AllocatedFrames reports the number of frames currently in use.
func (p *Phys) AllocatedFrames() int { return p.allocated }

// PeakFrames reports the high-water mark of allocated frames.
func (p *Phys) PeakFrames() int { return p.peak }

// FreeFrames reports the number of frames available for allocation.
func (p *Phys) FreeFrames() int { return p.nfree }

// LiveSlots reports the distinct contents the store keeps for its frames:
// the shared zero page, every real slot a frame points at, and every seed
// a frame points at.
func (p *Phys) LiveSlots() int { return 1 + int(p.nextSlot-1) - len(p.freeSlots) + p.nseeds }

// MaterializedPages reports how many times a seeded frame was given stored
// bytes: by a partial write, or by a Page view. Reads never materialize.
// It is host bookkeeping, like LiveSlots: no simulated value or PhysState
// byte depends on it.
func (p *Phys) MaterializedPages() uint64 { return p.materialized }

// StoreBytes reports the bytes of the backed store chunks: what holding
// the frames' stored contents costs the host.
func (p *Phys) StoreBytes() int {
	n := 0
	for _, c := range p.chunks {
		n += len(c)
	}
	return n
}

// back backs slot s's chunk if it is not yet, reporting whether it was
// backed now (a fresh chunk is all zeroes).
func (p *Phys) back(s int32) bool {
	c := int(s-1) / chunkSlots
	if p.chunks[c] != nil {
		return false
	}
	p.chunks[c] = make([]byte, p.chunkLen(c))
	return true
}

// view returns stored slot s's bytes (s >= 0). The three-index slice caps
// the view at the slot boundary, so an erroneous append can never spill
// into a neighbouring slot.
func (p *Phys) view(s int32) []byte {
	if s == zeroSlot {
		return zeroPage[:]
	}
	i := int(s - 1)
	base := i % chunkSlots * PageSize
	return p.chunks[i/chunkSlots][base : base+PageSize : base+PageSize]
}

// chunkLen reports the byte length of chunk i. Live slots never outnumber
// frames, so the store needs no more slots than the machine has frames.
func (p *Phys) chunkLen(i int) int {
	return min(chunkSlots, len(p.frames)-i*chunkSlots) * PageSize
}

// newSlot hands out an unreferenced slot with its chunk backed, preferring
// a recycled one. A recycled slot holds a previous owner's bytes; zeroed
// asks for them to be cleared. Every other slot is zero already.
func (p *Phys) newSlot(zeroed bool) int32 {
	if n := len(p.freeSlots); n > 0 {
		s := p.freeSlots[n-1]
		p.freeSlots = p.freeSlots[:n-1]
		if zeroed {
			clear(p.view(s))
		}
		return s
	}
	s := p.nextSlot
	p.nextSlot++
	p.back(s)
	return s
}

// seed returns the seed a frame pointing at s < 0 reads from.
func (p *Phys) seed(s int32) uint64 { return p.seeds[-s] }

// retain adds a frame reference to s.
func (p *Phys) retain(s int32) {
	switch {
	case s > 0:
		p.slotRefs[s]++
	case s < 0:
		p.seedRefs[-s]++
	}
}

// release drops a frame reference from s, recycling a slot or seed nothing
// points at any more. Dropping the last reference to the last seed drops
// the seed table.
func (p *Phys) release(s int32) {
	switch {
	case s > 0:
		if p.slotRefs[s]--; p.slotRefs[s] == 0 {
			p.freeSlots = append(p.freeSlots, s)
		}
	case s < 0:
		if p.seedRefs[-s]--; p.seedRefs[-s] == 0 {
			if p.nseeds--; p.nseeds == 0 {
				p.seeds, p.seedRefs, p.freeSeeds = nil, nil, nil
			} else {
				p.freeSeeds = append(p.freeSeeds, -s)
			}
		}
	}
}

// own gives frame f a slot no other frame points at and returns its
// window for writing. keep preserves the frame's bytes; without it the
// caller must overwrite the whole window. A seeded frame moves into a
// fresh slot either way, so the chunk it lands in holds only stored pages;
// keeping its bytes generates them there and counts a materialization.
func (p *Phys) own(f *Frame, keep bool) []byte {
	old := f.slot
	if old > 0 && p.slotRefs[old] == 1 {
		return p.view(old)
	}
	s := p.newSlot(keep && old == zeroSlot)
	p.slotRefs[s] = 1
	switch {
	case keep && old > 0:
		copy(p.view(s), p.view(old))
	case keep && old < 0:
		FillPage(p.view(s), p.seed(old), 0)
		p.materialized++
	}
	p.release(old)
	f.slot = s
	return p.view(s)
}

// take removes the lowest free frame from the free set and marks it
// allocated (common body of the Alloc variants; zeroing policy is the
// caller's).
func (p *Phys) take() (PFN, error) {
	if p.nfree == 0 {
		p.AllocFails++
		return 0, ErrOutOfFrames
	}
	w := p.freeLow
	for p.freeBits[w] == 0 {
		w++
	}
	p.freeLow = w
	b := bits.TrailingZeros64(p.freeBits[w])
	p.freeBits[w] &^= 1 << b
	p.nfree--
	pfn := PFN(w*64 + b)
	f := &p.frames[pfn]
	f.refs = 1
	f.cow = false
	p.allocated++
	if p.allocated > p.peak {
		p.peak = p.allocated
	}
	p.Allocs++
	return pfn, nil
}

// Alloc hands out a zeroed frame with refcount 1. Every free frame is on
// the zero page already (DecRef released its slot); ZeroFills counts the
// scrubs a real hypervisor would pay, one per recycled frame that held
// data since it was last zeroed.
func (p *Phys) Alloc() (PFN, error) {
	pfn, err := p.take()
	if err != nil {
		return 0, err
	}
	if f := &p.frames[pfn]; f.dirty {
		f.dirty = false
		p.ZeroFills++
	}
	return pfn, nil
}

// AllocForCopy hands out a frame with unspecified contents: the caller must
// fully overwrite the page (CopyPage) before exposing it. CoW breaks use it
// to skip the redundant zero-fill that Alloc would pay just before the copy.
func (p *Phys) AllocForCopy() (PFN, error) {
	pfn, err := p.take()
	if err != nil {
		return 0, err
	}
	// Whatever the caller writes, the frame no longer holds zeroes.
	p.frames[pfn].dirty = true
	return pfn, nil
}

func (p *Phys) frame(pfn PFN) *Frame {
	if int(pfn) >= len(p.frames) {
		panic(fmt.Sprintf("mem: PFN %d out of range (%d frames)", pfn, len(p.frames)))
	}
	f := &p.frames[pfn]
	if f.refs == 0 {
		panic(fmt.Sprintf("mem: access to unallocated frame %d", pfn))
	}
	return f
}

// Get returns the metadata of an allocated frame.
func (p *Phys) Get(pfn PFN) *Frame { return p.frame(pfn) }

// Allocated reports whether the frame currently backs any mapping. The
// patrol scrubber uses it to walk the array without tripping the
// unallocated-access panic.
func (p *Phys) Allocated(pfn PFN) bool {
	return int(pfn) < len(p.frames) && p.frames[pfn].refs > 0
}

// IncRef adds a mapping reference to the frame (page merging points an
// additional guest page at it).
func (p *Phys) IncRef(pfn PFN) { p.frame(pfn).refs++ }

// DecRef drops a mapping reference; when the last reference is gone the
// frame releases its slot, moves to the zero page and returns to the
// free set. In deferred mode the frame instead parks on the pending list
// with its slot, because deferred-mode workers call DecRef concurrently
// and must not touch the slot store; EndDeferredFrees releases the slot.
func (p *Phys) DecRef(pfn PFN) {
	f := p.frame(pfn)
	f.refs--
	if f.refs != 0 {
		return
	}
	f.cow = false
	// The page held guest data; the next zeroing Alloc must scrub it.
	f.dirty = true
	if p.deferFrees {
		p.mu.Lock()
		p.allocated--
		p.Frees++
		p.pending = append(p.pending, pfn)
		p.mu.Unlock()
		return
	}
	p.release(f.slot)
	f.slot = zeroSlot
	p.allocated--
	p.Frees++
	p.markFree(pfn)
}

// BeginDeferredFrees switches DecRef to park fully-released frames on a
// pending list instead of the free set. A parallel scan pass brackets its
// workers with Begin/EndDeferredFrees so the slot freelist stays canonical.
// Workers may read seeded frames concurrently: SamePage, ComparePage,
// ReadAt, IsZero and ContentKey read a seed without writing anything.
func (p *Phys) BeginDeferredFrees() { p.deferFrees = true }

// EndDeferredFrees releases the pending frames' slots in ascending PFN
// order, so the slot freelist never depends on the order workers freed
// them, and returns the frames to the free set.
func (p *Phys) EndDeferredFrees() {
	p.deferFrees = false
	if len(p.pending) == 0 {
		return
	}
	slices.Sort(p.pending)
	for _, pfn := range p.pending {
		f := &p.frames[pfn]
		p.release(f.slot)
		f.slot = zeroSlot
		p.markFree(pfn)
	}
	p.pending = p.pending[:0]
}

// SetCoW marks the frame write-protected (shared read-only).
func (p *Phys) SetCoW(pfn PFN, cow bool) { p.frame(pfn).cow = cow }

// Page returns a read-only view of the frame's bytes, capped at the frame
// boundary. The view may be shared with other frames holding the same
// bytes, so nothing may write through it; it stays valid until the next
// write to the frame (WriteAt, CopyPage into it, SeedPage, the DecRef
// that frees it, or SetState). A view needs stored bytes, so a seeded
// frame materializes: it moves into a slot of its own, which its bytes are
// generated into, a write to the store that concurrent readers must not
// race. Readers that only need the bytes use ReadAt, which never
// materializes.
func (p *Phys) Page(pfn PFN) []byte {
	f := p.frame(pfn)
	if f.slot < 0 {
		p.own(f, true)
	}
	return p.view(f.slot)
}

// ReadAt copies the frame's bytes [off, off+len(dst)) into dst. A seeded
// frame's bytes are generated into dst from its seed, and nothing is
// stored, so ReadAt is safe to call from concurrent readers. A range that
// does not fit the page panics.
func (p *Phys) ReadAt(pfn PFN, off int, dst []byte) {
	s := p.frame(pfn).slot
	if off < 0 || len(dst) > PageSize-off {
		panic(fmt.Sprintf("mem: read of %d bytes at offset %d overruns frame %d", len(dst), off, pfn))
	}
	if s >= 0 {
		copy(dst, p.view(s)[off:])
		return
	}
	g := newPageGen(p.seed(s))
	g.readAt(dst, off)
}

// ReadLine returns a read-only view of the i-th 64B line of the frame,
// under the same rules as Page, without materializing a seeded frame: its
// line comes from a small cache of partly generated pages that the store
// owns. A view of a seeded line stays valid until lineCacheSize-1 other
// seeds have been read through ReadLine, so a caller may hold the lines of
// two frames at once. The cache makes ReadLine of a seeded frame unsafe
// for concurrent use.
func (p *Phys) ReadLine(pfn PFN, i int) []byte {
	if i < 0 || i >= LinesPerPage {
		panic(fmt.Sprintf("mem: line index %d out of range", i))
	}
	s := p.frame(pfn).slot
	if s < 0 {
		return p.seededLine(p.seed(s), i)
	}
	return p.view(s)[i*LineSize : (i+1)*LineSize]
}

// lineCacheSize is the number of partly generated pages ReadLine keeps.
const lineCacheSize = 4

// lineCache holds the pages ReadLine generated last, each as far as a
// line was asked of it, least recently used first out.
type lineCache struct {
	clock   uint64
	entries [lineCacheSize]struct {
		seed uint64
		used uint64 // clock at the last read; 0 for an empty entry
		gen  pageGen
		pg   [PageSize]byte // bytes [0, gen.pos) generated
	}
}

// seededLine returns line i of seed's page from the line cache. A page
// that is read further than it was generated is extended to at least
// twice its generated length, so a lockstep walk down the page generates
// it in a handful of steps.
func (p *Phys) seededLine(seed uint64, i int) []byte {
	c := p.lines
	if c == nil {
		c = new(lineCache)
		p.lines = c
	}
	c.clock++
	victim := 0
	for k := range c.entries {
		e := &c.entries[k]
		if e.used != 0 && e.seed == seed {
			victim = k
			break
		}
		if e.used < c.entries[victim].used {
			victim = k
		}
	}
	e := &c.entries[victim]
	if e.used == 0 || e.seed != seed {
		e.seed, e.gen = seed, newPageGen(seed)
	}
	e.used = c.clock
	end := (i + 1) * LineSize
	if e.gen.pos < end {
		to := min(max(end, 2*e.gen.pos), PageSize)
		e.gen.fill(e.pg[e.gen.pos:to])
	}
	return e.pg[i*LineSize : end : end]
}

// WriteAt stores src in the frame at byte offset off. A frame that shares
// its slot with other frames, sits on the zero page or is seeded gets a
// private slot first; a partial write over a seeded frame materializes it.
// Writing zeroes over a whole page, or onto the zero page, just points the
// frame at the zero page. A write that does not fit the page panics:
// callers own their bounds.
func (p *Phys) WriteAt(pfn PFN, off int, src []byte) {
	f := p.frame(pfn)
	if off < 0 || len(src) > PageSize-off {
		panic(fmt.Sprintf("mem: write of %d bytes at offset %d overruns frame %d", len(src), off, pfn))
	}
	if len(src) == 0 {
		return
	}
	whole := off == 0 && len(src) == PageSize
	if (whole || f.slot == zeroSlot) && FirstNonZero(src) < 0 {
		p.release(f.slot)
		f.slot = zeroSlot
		return
	}
	copy(p.own(f, !whole)[off:], src)
}

// CopyPage makes frame dst hold the contents of frame src. It copies no
// bytes: dst shares src's slot or seed until either frame is written.
func (p *Phys) CopyPage(dst, src PFN) {
	fd, fs := p.frame(dst), p.frame(src)
	if fd.slot == fs.slot {
		return
	}
	p.retain(fs.slot)
	p.release(fd.slot)
	fd.slot = fs.slot
}

// SeedPages points every listed frame at its seed, seeds[i], as SeedPage
// does, sizing a new seed table for the whole list. The boot image builder
// uses it so that the contents nothing writes are never stored.
func (p *Phys) SeedPages(pfns []PFN, seeds []uint64) {
	if p.seeds == nil && len(pfns) > 0 {
		// Size a new table for the whole list; seed 0 is never handed out.
		p.seeds = make([]uint64, 1, 1+len(pfns))
		p.seedRefs = make([]int32, 1, 1+len(pfns))
	}
	for i, pfn := range pfns {
		p.SeedPage(pfn, seeds[i])
	}
}

// SeedPage points the frame at a seed table entry holding seed: the frame
// reads as the page FillPage writes from seed, and its bytes are never
// stored unless it materializes (a partial write, or a Page view). Reads —
// ReadAt, ReadLine, SamePage, ComparePage, IsZero, ContentKey, State —
// generate what they need from the seed into their own storage. The frame's
// old slot or seed is released, as a whole-page write releases it; a seed
// entry only this frame points at is rewritten in place, and otherwise the
// entry is a recycled one when any is free, so the table never holds more
// entries than the most frames that pointed at seeds at once, plus entry 0.
// The hypervisor's seeded write (vm.VM.WriteSeed) uses it so that generated
// guest pages are never stored either.
func (p *Phys) SeedPage(pfn PFN, seed uint64) {
	f := p.frame(pfn)
	if f.slot < 0 && p.seedRefs[-f.slot] == 1 {
		p.seeds[-f.slot] = seed
		return
	}
	var k int32
	if n := len(p.freeSeeds); n > 0 {
		k = p.freeSeeds[n-1]
		p.freeSeeds = p.freeSeeds[:n-1]
		p.seeds[k], p.seedRefs[k] = seed, 1
	} else {
		if p.seeds == nil {
			// Seed 0 is never handed out: -0 is the zero page.
			p.seeds, p.seedRefs = make([]uint64, 1), make([]int32, 1)
		}
		k = int32(len(p.seeds))
		p.seeds = append(p.seeds, seed)
		p.seedRefs = append(p.seedRefs, 1)
	}
	p.nseeds++
	p.release(f.slot)
	f.slot = -k
}

// The compare hot path checks the first cmpPrologue bytes a word at a
// time, since most tree compares diverge there, then whole cmpBlock-byte
// blocks with bytes.Equal (a vectorised memequal), and runs the word loop
// only inside the first unequal block. The byte index it reports is the
// one a byte-wise loop would find, so compare-cost accounting is unchanged.
const (
	cmpPrologue = 64
	cmpBlock    = 256
)

// firstDiff returns the index of the first byte where two pages differ, or
// -1 when they are equal.
func firstDiff(pa, pb []byte) int {
	off := 0
	for ; off < cmpPrologue; off += 8 {
		if i := wordDiff(pa, pb, off); i >= 0 {
			return i
		}
	}
	for ; off < PageSize; off += cmpBlock {
		end := min(off+cmpBlock, PageSize)
		if !bytes.Equal(pa[off:end], pb[off:end]) {
			break
		}
	}
	for ; off < PageSize; off += 8 {
		if i := wordDiff(pa, pb, off); i >= 0 {
			return i
		}
	}
	return -1
}

// wordDiff compares the 8-byte words at off and returns the index of their
// first differing byte, or -1. On a little-endian load the lowest
// differing byte of the word is the first differing byte of the page.
func wordDiff(pa, pb []byte, off int) int {
	wa := binary.LittleEndian.Uint64(pa[off : off+8])
	wb := binary.LittleEndian.Uint64(pb[off : off+8])
	if wa == wb {
		return -1
	}
	return off + bits.TrailingZeros64(wa^wb)/8
}

// samePages reports content equality and the bytes examined until the first
// divergence.
func samePages(pa, pb []byte) (bool, int) {
	if i := firstDiff(pa, pb); i >= 0 {
		return false, i + 1
	}
	return true, PageSize
}

// comparePages is the three-way comparison: the same traversal as
// samePages, with the memcmp sign taken from the first differing byte.
func comparePages(pa, pb []byte) (int, int) {
	i := firstDiff(pa, pb)
	switch {
	case i < 0:
		return 0, PageSize
	case pa[i] < pb[i]:
		return -1, i + 1
	default:
		return 1, i + 1
	}
}

// SamePage reports whether two frames have byte-identical contents, along
// with the number of bytes that were compared before the verdict (the cost
// a software comparator would pay: compare until first divergence).
// Frames sharing a slot or seed are equal without a look at their bytes.
func (p *Phys) SamePage(a, b PFN) (bool, int) {
	sa, sb := p.frame(a).slot, p.frame(b).slot
	if sa == sb {
		return true, PageSize
	}
	if sa >= 0 && sb >= 0 {
		return samePages(p.view(sa), p.view(sb))
	}
	if i, _, _ := p.seededDiff(sa, sb); i >= 0 {
		return false, i + 1
	}
	return true, PageSize
}

// ComparePage is a three-way content comparison (memcmp order), returning
// <0, 0, >0 and the number of bytes examined. Content-indexed tree search
// uses the sign to branch left or right.
func (p *Phys) ComparePage(a, b PFN) (int, int) {
	sa, sb := p.frame(a).slot, p.frame(b).slot
	if sa == sb {
		return 0, PageSize
	}
	if sa >= 0 && sb >= 0 {
		return comparePages(p.view(sa), p.view(sb))
	}
	switch i, ba, bb := p.seededDiff(sa, sb); {
	case i < 0:
		return 0, PageSize
	case ba < bb:
		return -1, i + 1
	default:
		return 1, i + 1
	}
}

// seededDiff finds the first byte where the contents of sa and sb differ,
// at least one of them seeded, and returns its index and the two bytes
// there, or -1 when the pages are equal. Both pages are zero up to the
// shorter of their zero prefixes — a seed knows its own exactly, and a
// stored page's is scanned only that far — so the walk starts there, and
// then compares the pages a word at a time, each seeded word as its
// generator steps to it, so no window is generated or zeroed. Two seeds
// with different zero prefixes differ where the shorter one ends, which a
// single word decides. Nothing is written to the store, so concurrent
// readers may compare seeded frames.
func (p *Phys) seededDiff(sa, sb int32) (int, byte, byte) {
	var ga, gb pageGen
	var pa, pb []byte
	za, zb := PageSize, PageSize
	if sa < 0 {
		ga = newPageGen(p.seed(sa))
		za = ga.zeroPrefix()
	} else {
		pa = p.view(sa)
	}
	if sb < 0 {
		if sa < 0 && p.seed(sa) == p.seed(sb) {
			return -1, 0, 0
		}
		gb = newPageGen(p.seed(sb))
		zb = gb.zeroPrefix()
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
	for ; off < PageSize; off += 8 {
		var wa, wb uint64
		if pa != nil {
			wa = binary.LittleEndian.Uint64(pa[off : off+8])
		} else {
			wa = ga.next()
		}
		if pb != nil {
			wb = binary.LittleEndian.Uint64(pb[off : off+8])
		} else {
			wb = gb.next()
		}
		if wa != wb {
			// The lowest differing byte of a little-endian word is the
			// first differing byte of the page.
			sh := bits.TrailingZeros64(wa^wb) &^ 7
			return off + sh/8, byte(wa >> sh), byte(wb >> sh)
		}
	}
	return -1, 0, 0
}

// FirstNonZero scans b for its first nonzero byte, returning its index or
// -1 when b is all zeroes. It walks b the way firstDiff walks a page pair:
// a word-at-a-time prologue, then blocks compared against zeroBlock, then
// words inside the first nonzero block. The index matches what a byte-wise
// scan would report, so zero-check cost accounting is unchanged.
func FirstNonZero(b []byte) int {
	i := 0
	for ; i+8 <= len(b) && i < cmpPrologue; i += 8 {
		if w := binary.LittleEndian.Uint64(b[i : i+8]); w != 0 {
			return i + bits.TrailingZeros64(w)/8
		}
	}
	for ; i+cmpBlock <= len(b); i += cmpBlock {
		if !bytes.Equal(b[i:i+cmpBlock], zeroBlock[:]) {
			break
		}
	}
	for ; i+8 <= len(b); i += 8 {
		if w := binary.LittleEndian.Uint64(b[i : i+8]); w != 0 {
			return i + bits.TrailingZeros64(w)/8
		}
	}
	for ; i < len(b); i++ {
		if b[i] != 0 {
			return i
		}
	}
	return -1
}

// zeroBlock is FirstNonZero's all-zero comparand.
var zeroBlock [cmpBlock]byte

// ContentKey is a 64-bit FNV-1a-style digest of the frame's full contents,
// folding the page in 8-byte little-endian words, used by verification
// tooling to group frames by content cheaply. Equal pages have equal keys;
// distinct keys imply distinct contents (collisions are possible in
// principle but negligible at simulated scales). Keys are never stored. A
// seeded frame's key is folded from its seed's stream.
func (p *Phys) ContentKey(pfn PFN) uint64 {
	s := p.frame(pfn).slot
	if s < 0 {
		return contentKeySeeded(p.seed(s))
	}
	return contentKey(p.view(s))
}

// The FNV-1a-style constants of contentKey.
const (
	keyOffset64 = 14695981039346656037
	keyPrime64  = 1099511628211
)

// contentKey is ContentKey over a page's bytes.
func contentKey(pg []byte) uint64 {
	h := uint64(keyOffset64)
	for off := 0; off < PageSize; off += 8 {
		h = (h ^ binary.LittleEndian.Uint64(pg[off:off+8])) * keyPrime64
	}
	return h
}

// IsZero reports whether the frame is all zeroes.
func (p *Phys) IsZero(pfn PFN) bool {
	switch s := p.frame(pfn).slot; {
	case s == zeroSlot:
		return true
	case s < 0:
		return newPageGen(p.seed(s)).zeroPrefix() == PageSize
	default:
		return FirstNonZero(p.view(s)) < 0
	}
}
