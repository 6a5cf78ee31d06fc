package ksm

import (
	"fmt"

	"repro/internal/rbtree"
	"repro/internal/vm"
)

// Checkpoint support. AlgorithmState is a plain-data image of the KSM
// engine state: the per-page hash keys (in (VM, GFN) order, the slabs'
// own order, and only for pages that hold one — a page without a key
// behaves exactly like a page never tracked), the scan order and cursor,
// pass number, statistics, the per-shard deepest-comparison trackers, and
// the exact structure of every tree shard.
//
// Capture is only legal at a pass boundary, where the unstable tree is
// empty (EndPass throws it away): mid-pass unstable nodes hold frame
// references whose item back-pointers cannot be rebuilt from plain data.

// ItemState is the exported image of one rmapItem that holds a hash.
type ItemState struct {
	ID      vm.PageID
	OldHash uint32
}

// AlgorithmState is the serialized image of an Algorithm.
type AlgorithmState struct {
	Items    []ItemState
	Order    []vm.PageID
	Curs     int
	Pass     uint64
	Stats    Stats
	MaxCmp   []int
	Stable   []rbtree.TreeState
	Unstable []rbtree.TreeState
}

// State captures the algorithm at a pass boundary.
func (a *Algorithm) State() (AlgorithmState, error) {
	if n := a.Unstable.Size(); n != 0 {
		return AlgorithmState{}, fmt.Errorf("ksm: checkpoint mid-pass (%d unstable nodes)", n)
	}
	st := AlgorithmState{
		Order:    append([]vm.PageID(nil), a.order...),
		Curs:     a.curs,
		Pass:     a.pass,
		Stats:    a.Stats,
		MaxCmp:   append([]int(nil), a.maxCmp...),
		Stable:   a.Stable.Export(),
		Unstable: a.Unstable.Export(),
	}
	for _, slab := range a.items {
		for _, it := range slab {
			if it.hasHash {
				st.Items = append(st.Items, ItemState{ID: it.id, OldHash: it.oldHash})
			}
		}
	}
	return st, nil
}

// SetState restores a previously captured image in place. Shard count is
// configuration and must match; tree structures are imported verbatim so
// every later descent compares exactly the pages the uninterrupted run
// would have compared.
func (a *Algorithm) SetState(st AlgorithmState) error {
	if len(st.MaxCmp) != len(a.maxCmp) {
		return fmt.Errorf("ksm: restore shard-count mismatch (have %d, snapshot %d)",
			len(a.maxCmp), len(st.MaxCmp))
	}
	a.items = nil
	for _, is := range st.Items {
		if is.ID.VM < 0 || int(is.ID.VM) >= a.HV.NumVMs() || int(is.ID.GFN) >= a.HV.VM(int(is.ID.VM)).Pages() {
			return fmt.Errorf("ksm: restore item names %v, which does not exist", is.ID)
		}
		it := a.item(is.ID)
		it.oldHash, it.hasHash = is.OldHash, true
	}
	a.order = append(a.order[:0], st.Order...)
	a.curs = st.Curs
	a.pass = st.Pass
	a.Stats = st.Stats
	copy(a.maxCmp, st.MaxCmp)
	a.Stable.Import(st.Stable, nil)
	// The unstable tree is structurally empty at every legal capture point;
	// importing still restores each shard's cumulative comparison counters.
	a.Unstable.Import(st.Unstable, nil)
	return nil
}
