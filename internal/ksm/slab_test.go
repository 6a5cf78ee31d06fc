package ksm

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

// mapTracker is the reference for the item slabs: the per-page hash
// tracking they replaced, one map entry per page ever recorded.
type mapTracker struct {
	items map[vm.PageID]*rmapItem
	stats Stats
}

func (m *mapTracker) record(id vm.PageID, key uint32) HashOutcome {
	it := m.items[id]
	if it == nil {
		it = &rmapItem{id: id}
		m.items[id] = it
	}
	var out HashOutcome
	switch {
	case !it.hasHash:
		m.stats.HashFirstSeen++
		out = HashFirst
	case it.oldHash == key:
		m.stats.HashMatches++
		out = HashSame
	default:
		m.stats.HashMismatches++
		out = HashChanged
	}
	it.oldHash, it.hasHash = key, true
	return out
}

// check mirrors Algorithm.HashCheck: an unbacked page is changed and
// leaves no trace.
func (m *mapTracker) check(hv *vm.Hypervisor, id vm.PageID) HashOutcome {
	pfn, ok := hv.Resolve(id)
	if !ok {
		return HashChanged
	}
	page := make([]byte, mem.PageSize)
	hv.Phys.ReadAt(pfn, 0, page)
	return m.record(id, JHasher{}.PageKey(page))
}

// itemStates lists the tracked pages that hold a hash in (VM, GFN) order.
func (m *mapTracker) itemStates() []ItemState {
	var out []ItemState
	for _, it := range m.items {
		if it.hasHash {
			out = append(out, ItemState{ID: it.id, OldHash: it.oldHash})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].ID, out[j].ID
		return a.VM < b.VM || a.VM == b.VM && a.GFN < b.GFN
	})
	return out
}

// runItemProgram decodes ops from data and drives the slab tracker and the
// map reference side by side, failing on the first divergence of an
// outcome, the Stats or the exported items. Ops: record an external key,
// hash-check a page, write a page, add a VM, prepare the slabs of the scan
// order, and checkpoint-restore the algorithm.
func runItemProgram(t *testing.T, data []byte) {
	t.Helper()
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		i++
		return int(data[i-1])
	}
	hv := vm.NewHypervisor(64 * mem.PageSize)
	addVM := func(pages int) {
		v := hv.NewVM(uint64(pages) * mem.PageSize)
		v.Madvise(0, pages/2+1, true)
	}
	addVM(next()%4 + 1)
	addVM(next()%4 + 1)
	a := NewAlgorithm(hv, JHasher{})
	ref := &mapTracker{items: map[vm.PageID]*rmapItem{}}
	page := func() vm.PageID {
		v := hv.VM(next() % hv.NumVMs())
		return v.PageID(vm.GFN(next() % v.Pages()))
	}
	compare := func(step int) {
		t.Helper()
		if a.Stats != ref.stats {
			t.Fatalf("step %d: Stats %+v, map tracker %+v", step, a.Stats, ref.stats)
		}
		st, err := a.State()
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.itemStates(); !reflect.DeepEqual(st.Items, want) {
			t.Fatalf("step %d: State().Items\n%v\nmap tracker\n%v", step, st.Items, want)
		}
	}
	for step := 0; i < len(data); step++ {
		switch next() % 6 {
		case 0:
			id, key := page(), uint32(next()%3)
			if got, want := a.RecordHash(id, key), ref.record(id, key); got != want {
				t.Fatalf("step %d: RecordHash(%v, %d) = %d, map tracker %d", step, id, key, got, want)
			}
		case 1:
			id := page()
			got, _ := a.HashCheck(id)
			if want := ref.check(hv, id); got != want {
				t.Fatalf("step %d: HashCheck(%v) = %d, map tracker %d", step, id, got, want)
			}
		case 2:
			id, c := page(), byte(next()%3)
			if _, err := hv.VM(int(id.VM)).Write(id.GFN, 0, bytes.Repeat([]byte{c}, 64)); err != nil {
				t.Fatal(err)
			}
		case 3:
			if hv.NumVMs() < 6 {
				addVM(next()%4 + 1)
			}
		case 4:
			a.RefreshOrder()
			a.PrepareItems()
		case 5:
			st, err := a.State()
			if err != nil {
				t.Fatal(err)
			}
			if err := a.SetState(st); err != nil {
				t.Fatal(err)
			}
		}
		compare(step)
	}
}

// TestItemSlabMatchesMapTracker runs random programs through the slab
// tracker and the map reference.
func TestItemSlabMatchesMapTracker(t *testing.T) {
	r := sim.NewRNG(37)
	for n := 0; n < 300; n++ {
		data := make([]byte, 20+r.Intn(200))
		r.FillBytes(data)
		runItemProgram(t, data)
	}
}

// FuzzItemSlab checks the slab tracker against the map reference on
// fuzzer-chosen programs.
func FuzzItemSlab(f *testing.F) {
	// Record, check and write pages of the two boot VMs, then add a VM,
	// prepare the scan order's slabs, record into the new VM and
	// checkpoint-restore.
	f.Add([]byte{3, 2, 0, 0, 1, 1, 1, 0, 0, 2, 1, 0, 2, 1, 1, 0, 0, 1, 2, 3, 3, 4, 0, 2, 0, 1, 5, 1, 2, 0, 6, 0, 2, 1, 1})
	f.Add([]byte{0, 0, 4, 3, 1, 1, 2, 2, 1, 1, 7, 1, 1, 1, 3, 1, 1, 0, 1, 1, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		runItemProgram(t, data)
	})
}

// TestItemLayout pins the dense per-page state: an item is a packed page
// ID, a key and a flag.
func TestItemLayout(t *testing.T) {
	if n := unsafe.Sizeof(rmapItem{}); n > 16 {
		t.Fatalf("rmapItem is %d bytes, want at most 16", n)
	}
}
