// Package mem models the host physical memory of the simulated server:
// 4KB frames with reference counts, zero-fill-on-allocate semantics (the
// hypervisor zeroes pages before handing them to a guest, which is what
// makes "mergeable zero" pages exist at all), and copy-on-write sharing
// state used by same-page merging.
//
// Frames are backed by a chunked arena that is allocated lazily: each chunk
// backs chunkFrames consecutive frames and is created the first time one
// of them is allocated, so host memory tracks the frames the simulated
// machine has touched rather than its capacity. Page and ReadLine hand out
// sub-slices of a chunk, so the scan hot path creates no garbage and page
// data keeps real spatial locality. A frame's window is fixed by its PFN
// for the life of the Phys, so views stay stable across freelist reuse
// (see DESIGN.md §10 for the aliasing rules).
package mem

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// PageSize is the frame size in bytes.
const PageSize = 4096

// LineSize is the cache-line size in bytes.
const LineSize = 64

// LinesPerPage is the number of cache lines in a frame.
const LinesPerPage = PageSize / LineSize

// chunkFrames is the number of frames one arena chunk backs (256 KiB).
const chunkFrames = 64

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

// ErrOutOfMemory is the historical name of ErrOutOfFrames.
var ErrOutOfMemory = ErrOutOfFrames

// Frame is the per-frame metadata the hypervisor tracks.
type Frame struct {
	refs  int  // number of guest mappings pointing at this frame
	cow   bool // write-protected shared frame (merged or pre-CoW)
	dirty bool // arena bytes may be nonzero from a previous owner
}

// Refs reports the number of mappings sharing the frame.
func (f *Frame) Refs() int { return f.refs }

// CoW reports whether the frame is write-protected copy-on-write.
func (f *Frame) CoW() bool { return f.cow }

// Phys is the physical memory of the machine.
type Phys struct {
	// chunks[i] backs frames [i*chunkFrames, (i+1)*chunkFrames); nil until
	// one of them is first allocated. Only the last chunk may be shorter.
	chunks [][]byte
	frames []Frame
	free   []PFN

	allocated int
	peak      int

	// Deferred-free mode: while a sharded scan pass runs workers in
	// parallel, frames released by merges are parked under mu and flushed
	// to the freelist in canonical PFN order at the pass join, so the
	// freelist state never depends on worker interleaving.
	mu         sync.Mutex
	deferFrees bool
	pending    []PFN

	// Statistics of interest to the evaluation.
	Allocs     uint64 // total successful Alloc calls
	AllocFails uint64 // Alloc calls that found an empty freelist
	Frees      uint64 // frames returned to the freelist
	ZeroFills  uint64 // frames actually zeroed on allocation
}

// New creates a physical memory of the given capacity in bytes, rounded
// down to whole frames.
func New(capacity uint64) *Phys {
	n := int(capacity / PageSize)
	p := &Phys{
		chunks: make([][]byte, (n+chunkFrames-1)/chunkFrames),
		frames: make([]Frame, n),
		free:   make([]PFN, 0, n),
	}
	// The freelist is kept sorted descending at all times, so Alloc (which
	// pops from the end) always hands out the lowest free PFN. Allocation
	// order is therefore a function of the free SET alone, never of release
	// order — the property that makes a parallel scan pass's frame
	// assignment bit-identical to a sequential one.
	for i := n - 1; i >= 0; i-- {
		p.free = append(p.free, PFN(i))
	}
	return p
}

// insertFree returns pfn to the freelist, preserving descending order.
func (p *Phys) insertFree(pfn PFN) {
	i := sort.Search(len(p.free), func(i int) bool { return p.free[i] < pfn })
	p.free = append(p.free, 0)
	copy(p.free[i+1:], p.free[i:])
	p.free[i] = pfn
}

// TotalFrames reports the machine's frame count.
func (p *Phys) TotalFrames() int { return len(p.frames) }

// AllocatedFrames reports the number of frames currently in use.
func (p *Phys) AllocatedFrames() int { return p.allocated }

// PeakFrames reports the high-water mark of allocated frames.
func (p *Phys) PeakFrames() int { return p.peak }

// FreeFrames reports the number of frames available for allocation.
func (p *Phys) FreeFrames() int { return len(p.free) }

// pageAt returns the frame's arena window; the frame's chunk must already
// be backed. The three-index slice caps the view at the frame boundary so
// an erroneous append can never spill into a neighbouring frame's bytes.
func (p *Phys) pageAt(pfn PFN) []byte {
	base := int(pfn%chunkFrames) * PageSize
	return p.chunks[pfn/chunkFrames][base : base+PageSize : base+PageSize]
}

// chunkLen reports the byte length of chunk i.
func (p *Phys) chunkLen(i int) int {
	return min(chunkFrames, len(p.frames)-i*chunkFrames) * PageSize
}

// back materialises chunk i. A fresh chunk is all zeroes, which is exactly
// what its never-allocated frames held, so no accounting changes. The
// allocation and restore paths call it on one goroutine; the only
// concurrent caller is BackPrefix, whose goroutines own disjoint chunk
// indexes and are joined before it returns. Parallel scan workers read
// backed chunks and never create one.
func (p *Phys) back(i int) []byte {
	if p.chunks[i] == nil {
		p.chunks[i] = make([]byte, p.chunkLen(i))
	}
	return p.chunks[i]
}

// BackPrefix backs, on up to workers goroutines, every chunk holding one of
// the frames [0, frames) — exactly the chunks take would back while a
// fresh arena's lowest-free-PFN allocator hands out its first frames
// frames — and returns once all of them are backed. Each goroutine backs a
// contiguous range of chunk indexes disjoint from every other's. The image
// builder calls it before its first allocation, so the zeroing of a boot
// image's arena runs in parallel; no other goroutine may use p meanwhile.
// Backing changes no accounting and no byte, so State is unaffected.
func (p *Phys) BackPrefix(frames, workers int) {
	n := (min(frames, len(p.frames)) + chunkFrames - 1) / chunkFrames
	workers = max(1, min(workers, n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				p.back(i)
			}
		}()
	}
	wg.Wait()
}

// take pops a frame off the freelist and marks it allocated (common body of
// the Alloc variants; zeroing policy is the caller's).
func (p *Phys) take() (PFN, error) {
	if len(p.free) == 0 {
		p.AllocFails++
		return 0, ErrOutOfFrames
	}
	pfn := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.back(int(pfn / chunkFrames))
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

// Alloc hands out a zeroed frame with refcount 1. Fresh frames come out of
// the arena already zero; only recycled frames that were actually written
// since are scrubbed, and ZeroFills counts exactly that real zeroing work.
func (p *Phys) Alloc() (PFN, error) {
	pfn, err := p.take()
	if err != nil {
		return 0, err
	}
	f := &p.frames[pfn]
	if f.dirty {
		pg := p.pageAt(pfn)
		for i := range pg {
			pg[i] = 0
		}
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
// frame returns to the freelist (or the pending list in deferred mode).
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
	p.allocated--
	p.Frees++
	p.insertFree(pfn)
}

// BeginDeferredFrees switches DecRef to park fully-released frames on a
// pending list instead of the freelist. A parallel scan pass brackets its
// workers with Begin/EndDeferredFrees so freelist order stays canonical.
func (p *Phys) BeginDeferredFrees() { p.deferFrees = true }

// EndDeferredFrees flushes pending frames to the freelist, restoring its
// descending sorted order independent of the order workers released them.
// Frames on the freelist are distinct, so any sort gives the same order.
func (p *Phys) EndDeferredFrees() {
	p.deferFrees = false
	if len(p.pending) == 0 {
		return
	}
	p.free = append(p.free, p.pending...)
	slices.SortFunc(p.free, func(a, b PFN) int { return cmp.Compare(b, a) })
	p.pending = p.pending[:0]
}

// SetCoW marks the frame write-protected (shared read-only).
func (p *Phys) SetCoW(pfn PFN, cow bool) { p.frame(pfn).cow = cow }

// Page returns the frame's backing bytes: a window into its arena chunk,
// capped at the frame boundary. Callers must treat CoW frames as read-only;
// guest writes go through the hypervisor's fault path.
func (p *Phys) Page(pfn PFN) []byte {
	p.frame(pfn)
	return p.pageAt(pfn)
}

// ReadLine returns the i-th 64B line of the frame.
func (p *Phys) ReadLine(pfn PFN, i int) []byte {
	if i < 0 || i >= LinesPerPage {
		panic(fmt.Sprintf("mem: line index %d out of range", i))
	}
	return p.Page(pfn)[i*LineSize : (i+1)*LineSize]
}

// CopyPage copies the contents of frame src into frame dst.
func (p *Phys) CopyPage(dst, src PFN) {
	p.frame(dst)
	p.frame(src)
	copy(p.pageAt(dst), p.pageAt(src))
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
func (p *Phys) SamePage(a, b PFN) (bool, int) {
	return samePages(p.Page(a), p.Page(b))
}

// ComparePage is a three-way content comparison (memcmp order), returning
// <0, 0, >0 and the number of bytes examined. Content-indexed tree search
// uses the sign to branch left or right.
func (p *Phys) ComparePage(a, b PFN) (int, int) {
	return comparePages(p.Page(a), p.Page(b))
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
func (p *Phys) ContentKey(pfn PFN) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	pg := p.Page(pfn)
	for off := 0; off < PageSize; off += 8 {
		h = (h ^ binary.LittleEndian.Uint64(pg[off:off+8])) * prime64
	}
	return h
}

// IsZero reports whether the frame is all zeroes.
func (p *Phys) IsZero(pfn PFN) bool {
	return FirstNonZero(p.Page(pfn)) < 0
}
