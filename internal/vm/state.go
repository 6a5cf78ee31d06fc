package vm

import (
	"fmt"

	"repro/internal/mem"
)

// Checkpoint support: plain-data images of the virtualization layer. The
// rmap is captured verbatim — entry order within a frame's mapper list is
// history-dependent (removal is swap-with-last), and merge candidate
// iteration observes that order, so restoring it element-for-element is
// required for bit-exact resume.

// MappingState is the exported image of one page-table entry.
type MappingState struct {
	PFN       uint64
	Present   bool
	WriteProt bool
	Mergeable bool
}

// VMState is the serialized image of one VM.
type VMState struct {
	Table      []MappingState
	SoftFaults uint64
	CoWBreaks  uint64
}

// HypervisorState is the serialized image of the hypervisor (excluding
// physical memory, which mem.PhysState covers, and the observer/reclaim
// hooks, which are wiring re-established by the restorer).
type HypervisorState struct {
	VMs         []VMState
	Rmap        [][]PageID
	Merges      uint64
	Unmerges    uint64
	AllocStalls uint64
}

// State captures the hypervisor's VM tables, rmap, and counters.
func (h *Hypervisor) State() HypervisorState {
	st := HypervisorState{
		VMs:         make([]VMState, len(h.vms)),
		Rmap:        make([][]PageID, len(h.rmap)),
		Merges:      h.Merges,
		Unmerges:    h.Unmerges,
		AllocStalls: h.AllocStalls,
	}
	for i, v := range h.vms {
		vs := VMState{
			Table:      make([]MappingState, len(v.table)),
			SoftFaults: v.SoftFaults,
			CoWBreaks:  v.CoWBreaks,
		}
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
	for pfn, ids := range h.rmap {
		if len(ids) > 0 {
			st.Rmap[pfn] = append([]PageID(nil), ids...)
		}
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
	if len(st.Rmap) != len(h.rmap) {
		return fmt.Errorf("vm: restore rmap-size mismatch (have %d, snapshot %d)", len(h.rmap), len(st.Rmap))
	}
	for i, vs := range st.VMs {
		v := h.vms[i]
		if len(vs.Table) != len(v.table) {
			return fmt.Errorf("vm: restore table-size mismatch for VM %d (have %d, snapshot %d)",
				i, len(v.table), len(vs.Table))
		}
		for g, ms := range vs.Table {
			v.table[g] = mapping{
				pfn:       mem.PFN(ms.PFN),
				present:   ms.Present,
				writeProt: ms.WriteProt,
				mergeable: ms.Mergeable,
			}
		}
		v.SoftFaults = vs.SoftFaults
		v.CoWBreaks = vs.CoWBreaks
	}
	for pfn := range h.rmap {
		h.rmap[pfn] = h.rmap[pfn][:0]
		h.rmap[pfn] = append(h.rmap[pfn], st.Rmap[pfn]...)
	}
	h.Merges = st.Merges
	h.Unmerges = st.Unmerges
	h.AllocStalls = st.AllocStalls
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
