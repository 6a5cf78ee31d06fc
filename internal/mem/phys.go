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
// allocated frames hold. A slot handed out by SeedPages holds a seed
// instead of bytes: its generator writes them the first time anything
// reads the slot, so contents nothing reads are never built.
//
// The per-frame bookkeeping is flat and holds no pointers, so the garbage
// collector has nothing in it to scan: a 12-byte Frame and a 4-byte slot
// refcount per frame, and one bit per frame in the free-frame bitmap, from
// which Alloc hands out the lowest free frame.
//
// All mutation goes through Phys methods: Alloc, AllocForCopy, CopyPage,
// WriteAt, SeedPages and SetState. Page and ReadLine return read-only
// views that stay valid until the next write to that frame (see DESIGN.md
// §10 for the store's rules).
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
	slot  int32 // slot holding the frame's bytes; zeroSlot for all zeroes
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
	chunks    [][]byte
	slotRefs  []int32
	freeSlots []int32
	nextSlot  int32

	// Seeded slots. seeded[s] marks a referenced slot whose bytes gen has
	// not written yet; seeds[s] is what it will write them from. SeedPages
	// grows both to cover the slots it hands out, and they are dropped once
	// no slot is seeded, so a slot past their end is not seeded. unread
	// counts the seeded slots, so that once all are generated a read costs
	// one branch. A seeded slot's chunk may be unbacked; every other
	// referenced slot's is backed.
	seeded    []bool
	seeds     []uint64
	unread    int
	gen       func(pg []byte, seed uint64)
	generated uint64

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

// LiveSlots reports the slots holding bytes for some frame: the shared
// zero page plus every real slot a frame points at.
func (p *Phys) LiveSlots() int { return 1 + int(p.nextSlot-1) - len(p.freeSlots) }

// GeneratedPages reports how many seeded slots have had their bytes
// generated. It is host bookkeeping, like LiveSlots: no simulated value or
// PhysState byte depends on it.
func (p *Phys) GeneratedPages() uint64 { return p.generated }

// window returns slot s's bytes, generating them first if s is seeded.
// Page, SamePage and ComparePage repeat its test inline, so that once every
// seeded slot is generated a read costs one predictable branch and keeps
// view inlined.
func (p *Phys) window(s int32) []byte {
	if p.unread != 0 {
		p.ready(s)
	}
	return p.view(s)
}

// ready generates slot s's bytes if s is seeded.
func (p *Phys) ready(s int32) {
	if p.isSeeded(s) {
		p.generate(s)
	}
}

// isSeeded reports whether slot s holds a seed in place of bytes.
func (p *Phys) isSeeded(s int32) bool { return int(s) < len(p.seeded) && p.seeded[s] }

// generate has gen write seeded slot s's bytes. Deferred-free workers read
// the store concurrently, so BeginDeferredFrees generates every seeded slot
// before they start, and generating inside the window panics.
func (p *Phys) generate(s int32) {
	if p.deferFrees {
		panic(fmt.Sprintf("mem: seeded slot %d read inside a deferred-free window", s))
	}
	seed := p.seeds[s]
	p.unseed(s)
	p.back(s)
	p.gen(p.view(s), seed)
	p.generated++
}

// generateAll generates every seeded slot, in slot order.
func (p *Phys) generateAll() {
	for s := int32(1); p.unread != 0; s++ {
		p.ready(s)
	}
}

// unseed drops slot s's seed, if it has one, without generating its bytes.
// Dropping the last seed drops the seed arrays.
func (p *Phys) unseed(s int32) {
	if p.unread != 0 && p.isSeeded(s) {
		p.seeded[s] = false
		if p.unread--; p.unread == 0 {
			p.seeded, p.seeds = nil, nil
		}
	}
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

// view returns slot s's bytes as they are; s's chunk must be backed. The
// three-index slice caps the view at the slot boundary, so an erroneous
// append can never spill into a neighbouring slot.
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

// takeSlot hands out an unreferenced slot, preferring a recycled one,
// without backing its chunk.
func (p *Phys) takeSlot() int32 {
	if n := len(p.freeSlots); n > 0 {
		s := p.freeSlots[n-1]
		p.freeSlots = p.freeSlots[:n-1]
		return s
	}
	p.nextSlot++
	return p.nextSlot - 1
}

// newSlot hands out an unreferenced slot with its chunk backed. A recycled
// slot in a chunk backed earlier holds a previous owner's bytes; zeroed
// asks for them to be cleared. Every other slot is zero already.
func (p *Phys) newSlot(zeroed bool) int32 {
	recycled := len(p.freeSlots) > 0
	s := p.takeSlot()
	if !p.back(s) && recycled && zeroed {
		clear(p.view(s))
	}
	return s
}

// release drops a frame reference from slot s, recycling it at zero and
// dropping its seed, if any, ungenerated.
func (p *Phys) release(s int32) {
	if s == zeroSlot {
		return
	}
	if p.slotRefs[s]--; p.slotRefs[s] == 0 {
		p.unseed(s)
		p.freeSlots = append(p.freeSlots, s)
	}
}

// own gives frame f a slot no other frame points at and returns its
// window for writing. keep preserves the frame's bytes; without it the
// caller must overwrite the whole window, so a seed is dropped ungenerated.
func (p *Phys) own(f *Frame, keep bool) []byte {
	old := f.slot
	if old != zeroSlot && p.slotRefs[old] == 1 {
		if !keep {
			p.unseed(old)
			p.back(old)
		}
		return p.window(old)
	}
	s := p.newSlot(keep && old == zeroSlot)
	p.slotRefs[s] = 1
	if keep && old != zeroSlot {
		copy(p.window(s), p.window(old))
	}
	p.release(old)
	f.slot = s
	return p.window(s)
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
// Workers read the store concurrently, so every seeded slot is generated
// first, here on the calling goroutine.
func (p *Phys) BeginDeferredFrees() {
	p.generateAll()
	p.deferFrees = true
}

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
// write to the frame (WriteAt, CopyPage into it, SeedPages, the DecRef
// that frees it, or SetState).
func (p *Phys) Page(pfn PFN) []byte {
	s := p.frame(pfn).slot
	if p.unread != 0 {
		p.ready(s)
	}
	return p.view(s)
}

// ReadLine returns a read-only view of the i-th 64B line of the frame,
// under the same rules as Page.
func (p *Phys) ReadLine(pfn PFN, i int) []byte {
	if i < 0 || i >= LinesPerPage {
		panic(fmt.Sprintf("mem: line index %d out of range", i))
	}
	return p.Page(pfn)[i*LineSize : (i+1)*LineSize]
}

// WriteAt stores src in the frame at byte offset off. A frame that shares
// its slot with other frames, or sits on the zero page, gets a private
// slot first. Writing zeroes over a whole page, or onto the zero page,
// just points the frame at the zero page. A write that does not fit the
// page panics: callers own their bounds.
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
// bytes: dst shares src's slot until either frame is written.
func (p *Phys) CopyPage(dst, src PFN) {
	fd, fs := p.frame(dst), p.frame(src)
	if fd.slot == fs.slot {
		return
	}
	if fs.slot != zeroSlot {
		p.slotRefs[fs.slot]++
	}
	p.release(fd.slot)
	fd.slot = fs.slot
}

// SeedPages gives every listed frame a private slot holding seeds[i] in
// place of bytes: gen(pg, seeds[i]) writes the slot's bytes the first time
// anything reads them, and must overwrite all of pg. A frame whose slot is
// dropped first (freed, wholly overwritten, or restored over) never has
// its bytes generated. The frames must be distinct, and slots are handed
// out in list order. One generator serves the store at a time, so slots
// seeded by an earlier call with another generator are generated first.
// The boot image builder uses it so that contents nothing reads are never
// built.
func (p *Phys) SeedPages(pfns []PFN, seeds []uint64, gen func(pg []byte, seed uint64)) {
	if len(pfns) == 0 {
		return
	}
	p.generateAll()
	// Every slot this call hands out is recycled from below nextSlot or
	// is nextSlot onwards, one per frame.
	if need := int(p.nextSlot) + len(pfns); len(p.seeded) < need {
		p.seeded = append(p.seeded, make([]bool, need-len(p.seeded))...)
		p.seeds = append(p.seeds, make([]uint64, need-len(p.seeds))...)
	}
	p.gen = gen
	for i, pfn := range pfns {
		f := p.frame(pfn)
		s := f.slot
		if s == zeroSlot || p.slotRefs[s] > 1 {
			s = p.takeSlot()
			p.slotRefs[s] = 1
			p.release(f.slot)
			f.slot = s
		}
		p.seeded[s], p.seeds[s] = true, seeds[i]
		p.unread++
	}
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
// Frames sharing a slot are equal without a look at their bytes.
func (p *Phys) SamePage(a, b PFN) (bool, int) {
	sa, sb := p.frame(a).slot, p.frame(b).slot
	if sa == sb {
		return true, PageSize
	}
	if p.unread != 0 {
		p.ready(sa)
		p.ready(sb)
	}
	return samePages(p.view(sa), p.view(sb))
}

// ComparePage is a three-way content comparison (memcmp order), returning
// <0, 0, >0 and the number of bytes examined. Content-indexed tree search
// uses the sign to branch left or right.
func (p *Phys) ComparePage(a, b PFN) (int, int) {
	sa, sb := p.frame(a).slot, p.frame(b).slot
	if sa == sb {
		return 0, PageSize
	}
	if p.unread != 0 {
		p.ready(sa)
		p.ready(sb)
	}
	return comparePages(p.view(sa), p.view(sb))
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
// principle but negligible at simulated scales). Keys are never stored.
func (p *Phys) ContentKey(pfn PFN) uint64 { return contentKey(p.Page(pfn)) }

// contentKey is ContentKey over a page's bytes.
func contentKey(pg []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for off := 0; off < PageSize; off += 8 {
		h = (h ^ binary.LittleEndian.Uint64(pg[off:off+8])) * prime64
	}
	return h
}

// IsZero reports whether the frame is all zeroes.
func (p *Phys) IsZero(pfn PFN) bool {
	s := p.frame(pfn).slot
	return s == zeroSlot || FirstNonZero(p.window(s)) < 0
}
