package mem

import "fmt"

// Checkpoint support. PhysState is a plain-data, gob-friendly image of the
// physical memory: arena bytes, per-frame metadata, the canonical freelist,
// and the allocation counters. Capturing and restoring it is bit-exact —
// the freelist order is preserved verbatim so post-restore allocation order
// matches the uninterrupted run. The image holds every frame's bytes flat,
// one PageSize window per frame, free frames included, so the format does
// not depend on which frames share a slot or sit on the zero page.

// FrameState is the exported image of one frame's metadata.
type FrameState struct {
	Refs  int
	CoW   bool
	Dirty bool
}

// PhysState is the full serialized image of a Phys.
type PhysState struct {
	Arena     []byte
	Frames    []FrameState
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
func (p *Phys) State() (PhysState, error) {
	if p.deferFrees || len(p.pending) > 0 {
		return PhysState{}, fmt.Errorf("mem: checkpoint during deferred-free window (%d pending)", len(p.pending))
	}
	st := PhysState{
		Arena:      make([]byte, len(p.frames)*PageSize),
		Frames:     make([]FrameState, len(p.frames)),
		Free:       append([]PFN(nil), p.free...),
		Allocated:  p.allocated,
		Peak:       p.peak,
		Allocs:     p.Allocs,
		AllocFails: p.AllocFails,
		Frees:      p.Frees,
		ZeroFills:  p.ZeroFills,
	}
	for i, f := range p.frames {
		st.Frames[i] = FrameState{Refs: f.refs, CoW: f.cow, Dirty: f.dirty}
		if f.slot != zeroSlot {
			copy(st.Arena[i*PageSize:], p.window(f.slot))
		}
	}
	return st, nil
}

// SetState restores a previously captured image in place. The frame count
// must match the live machine (capacity is configuration, not state). The
// slot store is rebuilt from scratch: every frame holding a nonzero byte
// gets a private slot and every other frame points at the zero page, so
// views taken before the restore are no longer valid.
func (p *Phys) SetState(st PhysState) error {
	if len(st.Frames) != len(p.frames) || len(st.Arena) != len(p.frames)*PageSize {
		return fmt.Errorf("mem: restore frame-count mismatch (have %d frames, snapshot %d)",
			len(p.frames), len(st.Frames))
	}
	clear(p.chunks)
	clear(p.slotRefs)
	p.freeSlots = p.freeSlots[:0]
	p.nextSlot = 1
	for i, f := range st.Frames {
		fr := Frame{refs: f.Refs, cow: f.CoW, dirty: f.Dirty}
		if src := st.Arena[i*PageSize : (i+1)*PageSize]; FirstNonZero(src) >= 0 {
			fr.slot = p.newSlot(false)
			p.slotRefs[fr.slot] = 1
			copy(p.window(fr.slot), src)
		}
		p.frames[i] = fr
	}
	p.free = append(p.free[:0], st.Free...)
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
