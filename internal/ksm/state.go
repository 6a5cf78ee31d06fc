package ksm

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/rbtree"
	"repro/internal/vm"
)

// Checkpoint support. AlgorithmState is a plain-data image of the KSM
// engine state: per-page tracking items (sorted by PageID so the encoding
// is deterministic — the live map has no stable order), the scan order and
// cursor, pass number, statistics, the per-shard
// deepest-comparison trackers, and the exact structure of every tree shard.
//
// Capture is only legal at a pass boundary, where the unstable tree is
// empty (EndPass throws it away): mid-pass unstable nodes hold frame
// references whose item back-pointers cannot be rebuilt from plain data.

// ItemState is the exported image of one rmapItem.
type ItemState struct {
	ID           vm.PageID
	OldHash      uint32
	HasHash      bool
	UnstablePass uint64
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
		Items:    make([]ItemState, 0, len(a.items)),
		Order:    append([]vm.PageID(nil), a.order...),
		Curs:     a.curs,
		Pass:     a.pass,
		Stats:    a.Stats,
		MaxCmp:   append([]int(nil), a.maxCmp...),
		Stable:   a.Stable.Export(),
		Unstable: a.Unstable.Export(),
	}
	for _, it := range a.items {
		st.Items = append(st.Items, ItemState{
			ID:           it.id,
			OldHash:      it.oldHash,
			HasHash:      it.hasHash,
			UnstablePass: it.unstablePass,
		})
	}
	sort.Slice(st.Items, func(i, j int) bool {
		a, b := st.Items[i].ID, st.Items[j].ID
		if a.VM != b.VM {
			return a.VM < b.VM
		}
		return a.GFN < b.GFN
	})
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
	a.items = make(map[vm.PageID]*rmapItem, len(st.Items))
	for _, is := range st.Items {
		a.items[is.ID] = &rmapItem{
			id:           is.ID,
			oldHash:      is.OldHash,
			hasHash:      is.HasHash,
			unstablePass: is.UnstablePass,
		}
	}
	a.order = append(a.order[:0], st.Order...)
	a.curs = st.Curs
	a.pass = st.Pass
	a.Stats = st.Stats
	copy(a.maxCmp, st.MaxCmp)
	a.Stable.Import(st.Stable, func(pfn mem.PFN) interface{} {
		return stableItem{pfn: pfn}
	})
	// The unstable tree is structurally empty at every legal capture point;
	// importing still restores each shard's cumulative comparison counters.
	a.Unstable.Import(st.Unstable, nil)
	return nil
}
