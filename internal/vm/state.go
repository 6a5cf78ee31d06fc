package vm

import (
	"fmt"

	"repro/internal/mem"
)

// Checkpoint support: plain-data images of the virtualization layer. The
// rmap is captured verbatim, each frame's mappers in list order (most
// recently mapped first), and SetState threads the lists back in that
// order, so State → SetState → State is identical. Only idempotent
// write-protection loops, mapper counts and checker diagnostics read the
// order; no simulated value depends on it.

// MappingState is the exported image of one page-table entry.
type MappingState struct {
	PFN       uint64
	Present   bool
	WriteProt bool
	Mergeable bool
}

// VMState is the serialized image of one VM.
type VMState struct {
	Table []MappingState
}

// HypervisorState is the serialized image of the hypervisor (excluding
// physical memory, which mem.PhysState covers, and the observer/reclaim
// hooks, which are wiring re-established by the restorer).
type HypervisorState struct {
	VMs         []VMState
	Rmap        [][]PageID // per frame, its mappers in list order
	Merges      uint64
	Unmerges    uint64
	AllocStalls uint64
}

// State captures the hypervisor's VM tables, rmap, and counters.
func (h *Hypervisor) State() HypervisorState {
	st := HypervisorState{
		VMs:         make([]VMState, len(h.vms)),
		Rmap:        make([][]PageID, len(h.heads)),
		Merges:      h.Merges,
		Unmerges:    h.Unmerges,
		AllocStalls: h.AllocStalls,
	}
	for i, v := range h.vms {
		vs := VMState{Table: make([]MappingState, len(v.table))}
		for g, e := range v.table {
			vs.Table[g] = MappingState{
				PFN:       uint64(e.pfn),
				Present:   e.present,
				WriteProt: e.writeProt,
				Mergeable: e.mergeable,
			}
		}
		st.VMs[i] = vs
	}
	for pfn := range h.heads {
		st.Rmap[pfn] = h.Mappers(mem.PFN(pfn))
	}
	return st
}

// SetState restores a previously captured image in place. Per-VM table
// sizes must match for VMs that exist on both sides (a VM's guest size is
// configuration, not state), but the VM *count* may differ: live workload
// events spawn and the snapshot machinery restores across them. A snapshot
// with fewer VMs truncates the live list (the extra VMs were spawned after
// the checkpoint; their frames are already gone from the restored arena and
// rmap); a snapshot with more VMs creates fresh ones sized from their
// captured tables (restoring a post-spawn world into a fresh runtime). The
// OnWrite/OnRelease/Reclaim hooks are left untouched — the restorer owns
// their wiring.
func (h *Hypervisor) SetState(st HypervisorState) error {
	if len(st.VMs) < len(h.vms) {
		h.vms = h.vms[:len(st.VMs)]
	}
	for len(h.vms) < len(st.VMs) {
		h.NewVM(uint64(len(st.VMs[len(h.vms)].Table)) * mem.PageSize)
	}
	if len(st.Rmap) != len(h.heads) {
		return fmt.Errorf("vm: restore rmap-size mismatch (have %d, snapshot %d)", len(h.heads), len(st.Rmap))
	}
	for i, vs := range st.VMs {
		v := h.vms[i]
		if len(vs.Table) != len(v.table) {
			return fmt.Errorf("vm: restore table-size mismatch for VM %d (have %d, snapshot %d)",
				i, len(v.table), len(vs.Table))
		}
		for g, ms := range vs.Table {
			if ms.Present && ms.PFN >= uint64(len(h.heads)) {
				return fmt.Errorf("vm: restore VM %d GFN %d maps frame %d of %d", i, g, ms.PFN, len(h.heads))
			}
			v.table[g] = mapping{
				pfn:       uint32(ms.PFN),
				present:   ms.Present,
				writeProt: ms.WriteProt,
				mergeable: ms.Mergeable,
			}
			if ms.Present {
				v.table[g].next = unlinked
			}
		}
	}
	if err := h.relink(st.Rmap); err != nil {
		return err
	}
	h.Merges = st.Merges
	h.Unmerges = st.Unmerges
	h.AllocStalls = st.AllocStalls
	return nil
}

// relink threads each frame's mapper list through the restored page tables
// in rmap's order. Every present mapping must appear exactly once, under
// the frame it maps; SetState marked them all unlinked beforehand.
func (h *Hypervisor) relink(rmap [][]PageID) error {
	for pfn, ids := range rmap {
		at := &h.heads[pfn]
		for _, id := range ids {
			if id.VM < 0 || int(id.VM) >= len(h.vms) || int(id.GFN) >= len(h.vms[id.VM].table) {
				return fmt.Errorf("vm: restore rmap of frame %d names %v, which does not exist", pfn, id)
			}
			e := &h.vms[id.VM].table[id.GFN]
			if !e.present || e.pfn != uint32(pfn) || e.next != unlinked {
				return fmt.Errorf("vm: restore rmap of frame %d names %v, which does not map it or is listed twice", pfn, id)
			}
			*at, e.next = keyOf(id), 0
			at = &e.next
		}
		*at = 0
	}
	for _, v := range h.vms {
		for g := range v.table {
			if v.table[g].next == unlinked {
				return fmt.Errorf("vm: restore rmap misses present page %v", v.PageID(GFN(g)))
			}
		}
	}
	return nil
}

// BalloonState is the serialized image of a balloon device.
type BalloonState struct {
	Next      int
	Inflated  uint64
	Reclaimed uint64
}

// State captures the balloon's cursor and counters.
func (b *Balloon) State() BalloonState {
	return BalloonState{Next: b.next, Inflated: b.Inflated, Reclaimed: b.Reclaimed}
}

// SetState restores the balloon's cursor and counters.
func (b *Balloon) SetState(st BalloonState) {
	b.next = st.Next
	b.Inflated = st.Inflated
	b.Reclaimed = st.Reclaimed
}
