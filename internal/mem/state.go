package mem

import (
	"bytes"
	"fmt"
	"math"
)

// Checkpoint support. PhysState is a plain-data, gob-friendly image of the
// physical memory: the distinct contents of the allocated frames, a
// per-frame content index, per-frame metadata, the free frames, and the
// allocation counters. Capturing and restoring it is bit-exact: allocation
// order is a function of the free set alone, so post-restore allocation
// order matches the uninterrupted run.
//
// The image is content-addressed the way the live store is: each distinct
// nonzero page an allocated frame holds is written once, and pages are
// numbered in order of the lowest PFN holding them. The image therefore
// depends only on what the frames hold, never on slot numbers, slot
// history, or which equal frames happen to share a slot. Free frames read
// as zero.

// FrameState is the exported image of one frame's metadata.
type FrameState struct {
	Refs  int
	CoW   bool
	Dirty bool
}

// PhysState is the full serialized image of a Phys.
type PhysState struct {
	// Pages holds the distinct nonzero contents, PageSize bytes each.
	Pages []byte
	// PageIndex[pfn] is 0 for a frame that reads as zero, and k for a
	// frame holding content k-1 of Pages.
	PageIndex []int32
	Frames    []FrameState
	// Free lists the free frames in descending PFN order; nil when none
	// is free.
	Free      []PFN
	Allocated int
	Peak      int

	Allocs     uint64
	AllocFails uint64
	Frees      uint64
	ZeroFills  uint64
}

// State captures the memory image. It must be called at a quiescent point:
// deferred-free mode (a parallel scan pass in flight) has pending frames
// whose ordering is not yet canonical, so capturing there is an error.
// A seeded frame's bytes are generated into a scratch page, and the frame
// stays seeded.
func (p *Phys) State() (PhysState, error) {
	if p.deferFrees || len(p.pending) > 0 {
		return PhysState{}, fmt.Errorf("mem: checkpoint during deferred-free window (%d pending)", len(p.pending))
	}
	// Frames sharing a slot or seed hold the same bytes, so the live slots
	// and seeds bound the number of distinct contents.
	live := int(p.nextSlot-1) - len(p.freeSlots) + p.nseeds
	st := PhysState{
		Pages:      make([]byte, 0, live*PageSize),
		PageIndex:  make([]int32, len(p.frames)),
		Frames:     make([]FrameState, len(p.frames)),
		Free:       p.freeList(),
		Allocated:  p.allocated,
		Peak:       p.peak,
		Allocs:     p.Allocs,
		AllocFails: p.AllocFails,
		Frees:      p.Frees,
		ZeroFills:  p.ZeroFills,
	}
	// slotIndex and seedIndex memoise each live slot's and seed's content
	// index (+1, so that 0 means not yet seen); byKey groups the contents
	// found so far by ContentKey, and bytes.Equal rules out collisions.
	slotIndex := make([]int32, p.nextSlot)
	seedIndex := make([]int32, len(p.seeds))
	var scratch []byte
	byKey := make(map[uint64][]int32)
	for i, f := range p.frames {
		st.Frames[i] = FrameState{Refs: int(f.refs), CoW: f.cow, Dirty: f.dirty}
		var memo *int32
		switch {
		case f.slot == zeroSlot:
			continue
		case f.slot > 0:
			memo = &slotIndex[f.slot]
		default:
			memo = &seedIndex[-f.slot]
		}
		if *memo == 0 {
			pg := scratch
			if f.slot > 0 {
				pg = p.view(f.slot)
			} else {
				if pg == nil {
					pg = make([]byte, PageSize)
					scratch = pg
				}
				FillPage(pg, p.seed(f.slot), 0)
			}
			*memo = 1 + st.addPage(pg, byKey)
		}
		st.PageIndex[i] = *memo - 1
	}
	if len(st.Pages) == 0 {
		st.Pages = nil // as a decoded image without contents reads
	}
	return st, nil
}

// addPage returns pg's content index in st, appending pg to Pages if no
// earlier frame holds the same bytes. An all-zero page is index 0.
func (st *PhysState) addPage(pg []byte, byKey map[uint64][]int32) int32 {
	if FirstNonZero(pg) < 0 {
		return 0
	}
	key := contentKey(pg)
	for _, k := range byKey[key] {
		if bytes.Equal(st.page(k), pg) {
			return k
		}
	}
	st.Pages = append(st.Pages, pg...)
	k := int32(len(st.Pages) / PageSize)
	byKey[key] = append(byKey[key], k)
	return k
}

// page returns content k (k >= 1) of the image.
func (st *PhysState) page(k int32) []byte {
	return st.Pages[int(k-1)*PageSize : int(k)*PageSize]
}

// SetState restores a previously captured image in place. The frame count
// must match the live machine (capacity is configuration, not state). The
// slot store is rebuilt from the image: each distinct content gets one
// slot, shared by every frame that holds it, and every other frame points
// at the zero page, so views taken before the restore are no longer valid.
// Seeds are dropped. Backed chunks are reused where the rebuilt
// store needs them and dropped beyond it.
func (p *Phys) SetState(st PhysState) error {
	n := len(p.frames)
	if len(st.Frames) != n || len(st.PageIndex) != n {
		return fmt.Errorf("mem: restore frame-count mismatch (have %d frames, snapshot %d)", n, len(st.Frames))
	}
	pages := len(st.Pages) / PageSize
	if len(st.Pages)%PageSize != 0 {
		return fmt.Errorf("mem: restore image holds %d content bytes, not whole pages", len(st.Pages))
	}
	for i, k := range st.PageIndex {
		if refs := st.Frames[i].Refs; refs < 0 || refs > math.MaxInt32 {
			return fmt.Errorf("mem: restore frame %d has refcount %d", i, refs)
		}
		if k < 0 || int(k) > pages || (k != 0 && st.Frames[i].Refs == 0) {
			return fmt.Errorf("mem: restore frame %d (refs %d) holds content %d of %d", i, st.Frames[i].Refs, k, pages)
		}
	}
	free, err := p.freeSet(st.Free)
	if err != nil {
		return err
	}
	clear(p.slotRefs)
	p.seeds, p.seedRefs, p.freeSeeds, p.nseeds = nil, nil, nil, 0
	p.freeSlots = p.freeSlots[:0]
	p.nextSlot = 1
	// pageSlot maps a content index to its slot once a frame has claimed
	// it; contents no frame holds get none, so slots never outnumber
	// frames.
	pageSlot := make([]int32, pages+1)
	for i, f := range st.Frames {
		fr := Frame{refs: int32(f.Refs), cow: f.CoW, dirty: f.Dirty}
		if k := st.PageIndex[i]; k != 0 {
			if pageSlot[k] == zeroSlot {
				pageSlot[k] = p.newSlot(false)
				copy(p.view(pageSlot[k]), st.page(k))
			}
			fr.slot = pageSlot[k]
			p.slotRefs[fr.slot]++
		}
		p.frames[i] = fr
	}
	// Slots from nextSlot up must read as never used: zero the rest of the
	// last chunk in use, and drop every chunk past it.
	used := int(p.nextSlot-1+chunkSlots-1) / chunkSlots
	if tail := int(p.nextSlot-1) % chunkSlots; tail != 0 {
		clear(p.chunks[used-1][tail*PageSize:])
	}
	clear(p.chunks[used:])
	p.freeBits, p.nfree, p.freeLow = free, len(st.Free), 0
	p.allocated = st.Allocated
	p.peak = st.Peak
	p.deferFrees = false
	p.pending = p.pending[:0]
	p.Allocs = st.Allocs
	p.AllocFails = st.AllocFails
	p.Frees = st.Frees
	p.ZeroFills = st.ZeroFills
	return nil
}

// freeSet builds the free-set bitmap holding the listed frames. A frame out
// of range or listed twice is an error.
func (p *Phys) freeSet(free []PFN) ([]uint64, error) {
	set := make([]uint64, len(p.freeBits))
	for _, pfn := range free {
		if int(pfn) >= len(p.frames) || set[pfn/64]&(1<<(pfn%64)) != 0 {
			return nil, fmt.Errorf("mem: restore free list holds frame %d twice or out of range (%d frames)", pfn, len(p.frames))
		}
		set[pfn/64] |= 1 << (pfn % 64)
	}
	return set, nil
}
