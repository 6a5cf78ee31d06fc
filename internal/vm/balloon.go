package vm

import "repro/internal/mem"

// Balloon is a deterministic balloon device: under memory pressure the
// hypervisor "inflates" it inside victim VMs, forcing the guests to release
// pages whose frames the host can hand to whoever is stalling on an empty
// freelist. The victim policy is fixed so same-seed runs reclaim the same
// pages in the same order: VMs are visited round-robin (the cursor advances
// one VM per Reclaim call so no single guest bears every storm), and within
// a VM pages are swept from the top guest frame downward — allocation
// bursts land in the high-GFN region, so storm pages are evicted before the
// resident image.
//
// Only sole-mapper frames are taken: a shared frame (or one held by a dedup
// engine's stable/unstable tree) would survive the release, costing the
// guest a page without freeing a frame.
type Balloon struct {
	hv   *Hypervisor
	next int // round-robin VM cursor

	// Inflated counts guest pages released into the balloon; Reclaimed
	// counts physical frames those releases freed. Under the sole-mapper
	// policy every release frees exactly one frame, so the two advance in
	// lockstep — they are kept separate because the invariant is worth
	// asserting, not assuming.
	Inflated  uint64
	Reclaimed uint64
}

// NewBalloon builds a balloon over the hypervisor's VMs.
func NewBalloon(h *Hypervisor) *Balloon { return &Balloon{hv: h} }

// Reclaim releases guest pages from victim VMs until it has freed frames
// physical frames or swept every VM, and returns the count actually freed.
// It must not be called inside a deferred-free window: the frames it frees
// are needed by the stalling allocator immediately.
func (b *Balloon) Reclaim(frames int) int {
	n := len(b.hv.vms)
	if frames <= 0 || n == 0 {
		return 0
	}
	freed := 0
	for i := 0; i < n && freed < frames; i++ {
		freed += b.reclaimFrom(b.hv.vms[(b.next+i)%n], frames-freed)
	}
	b.next = (b.next + 1) % n
	b.Reclaimed += uint64(freed)
	return freed
}

// reclaimFrom sweeps one VM from the top guest frame downward, releasing up
// to want sole-mapper base pages.
func (b *Balloon) reclaimFrom(v *VM, want int) int {
	freed := 0
	for g := len(v.table); g > 0 && freed < want; {
		g--
		e := &v.table[g]
		if !e.present {
			continue
		}
		if b.hv.Phys.Get(mem.PFN(e.pfn)).Refs() != 1 {
			continue // shared or engine-held: releasing frees nothing
		}
		v.Release(GFN(g))
		b.Inflated++
		freed++
	}
	return freed
}
