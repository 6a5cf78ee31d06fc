package mem

import "fmt"

// Checkpoint support. PhysState is a plain-data, gob-friendly image of the
// physical memory: arena bytes, per-frame metadata, the canonical freelist,
// and the allocation counters. Capturing and restoring it is bit-exact —
// the freelist order is preserved verbatim so post-restore allocation order
// matches the uninterrupted run. The image holds the whole arena flat, one
// PageSize window per frame; chunks that were never backed read as zeroes,
// so the format does not depend on which chunks happen to be backed.

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
	for i, c := range p.chunks {
		copy(st.Arena[i*chunkFrames*PageSize:], c)
	}
	for i, f := range p.frames {
		st.Frames[i] = FrameState{Refs: f.refs, CoW: f.cow, Dirty: f.dirty}
	}
	return st, nil
}

// SetState restores a previously captured image in place. The frame count
// must match the live machine (capacity is configuration, not state).
// Every chunk that holds an allocated frame or nonzero bytes ends up
// backed; a chunk that is already backed keeps its windows and is
// overwritten, so views taken before the restore stay valid.
func (p *Phys) SetState(st PhysState) error {
	if len(st.Frames) != len(p.frames) || len(st.Arena) != len(p.frames)*PageSize {
		return fmt.Errorf("mem: restore frame-count mismatch (have %d frames, snapshot %d)",
			len(p.frames), len(st.Frames))
	}
	for i, f := range st.Frames {
		p.frames[i] = Frame{refs: f.Refs, cow: f.CoW, dirty: f.Dirty}
	}
	for i := range p.chunks {
		base := i * chunkFrames * PageSize
		src := st.Arena[base : base+p.chunkLen(i)]
		if p.chunks[i] == nil && FirstNonZero(src) < 0 && !p.anyAllocated(i) {
			continue
		}
		copy(p.back(i), src)
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

// anyAllocated reports whether chunk i holds an allocated frame.
func (p *Phys) anyAllocated(i int) bool {
	for _, f := range p.frames[i*chunkFrames : i*chunkFrames+p.chunkLen(i)/PageSize] {
		if f.refs > 0 {
			return true
		}
	}
	return false
}
