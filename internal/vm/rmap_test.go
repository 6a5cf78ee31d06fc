package vm

import (
	"bytes"
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestMappingSize pins a page-table entry, reverse-map link included, at
// 16 bytes: every guest page of every VM has one.
func TestMappingSize(t *testing.T) {
	if n := unsafe.Sizeof(mapping{}); n != 16 {
		t.Fatalf("mapping is %d bytes, want 16", n)
	}
}

// TestPageKeyRoundTrip checks that a PageID packs into a nonzero key and
// back, at the edges of the packing.
func TestPageKeyRoundTrip(t *testing.T) {
	for _, id := range []PageID{{0, 0}, {0, 1}, {1, 0}, {7, 1<<32 - 1}, {maxVMs - 1, 1<<32 - 1}} {
		k := keyOf(id)
		if k == 0 || k == unlinked || k.id() != id {
			t.Fatalf("%v packs to %#x, which unpacks to %v", id, uint64(k), k.id())
		}
	}
}

// TestNewRejectsUnpackableSizes checks that a machine or VM the reverse map
// cannot name panics at construction. A VM of 2^32+1 pages is rejected
// before its table is made.
func TestNewRejectsUnpackableSizes(t *testing.T) {
	for name, build := range map[string]func(){
		"frames": func() { NewHypervisor((maxFrames + 1) * mem.PageSize) },
		"pages":  func() { newHV(1).NewVM((maxPages + 1) * mem.PageSize) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: an unpackable size was accepted", name)
				}
			}()
			build()
		}()
	}
}

// rmapModel is the reference the threaded reverse map is held to: a plain
// map from frame to its mappers, the frame each page maps, and each page's
// write protection, updated by the rules the hypervisor documents.
type rmapModel struct {
	mappers map[mem.PFN][]PageID
	frame   map[PageID]mem.PFN
	prot    map[PageID]bool
}

func (m *rmapModel) add(id PageID, pfn mem.PFN, prot bool) {
	m.mappers[pfn] = append(m.mappers[pfn], id)
	m.frame[id], m.prot[id] = pfn, prot
}

func (m *rmapModel) remove(id PageID) {
	pfn := m.frame[id]
	m.mappers[pfn] = slices.DeleteFunc(m.mappers[pfn], func(o PageID) bool { return o == id })
	if len(m.mappers[pfn]) == 0 {
		delete(m.mappers, pfn)
	}
	delete(m.frame, id)
	delete(m.prot, id)
}

func (m *rmapModel) protect(pfn mem.PFN, on bool) {
	for _, id := range m.mappers[pfn] {
		m.prot[id] = on
	}
}

// rmapProgram runs random guest and merge traffic on a hypervisor and on
// the model side by side.
type rmapProgram struct {
	t      *testing.T
	r      *sim.RNG
	h      *Hypervisor
	m      *rmapModel
	frames int
	nVM    int
	nPg    int
}

// page picks a random guest page.
func (g *rmapProgram) page() PageID {
	return PageID{g.r.Intn(g.nVM), GFN(g.r.Intn(g.nPg))}
}

// mapped picks a random present page's frame, or reports false.
func (g *rmapProgram) mapped() (mem.PFN, bool) {
	id := g.page()
	pfn, ok := g.m.frame[id]
	return pfn, ok
}

func (g *rmapProgram) step() {
	t, h, m := g.t, g.h, g.m
	id := g.page()
	v := h.VM(id.VM)
	switch op := g.r.Intn(10); op {
	case 0: // Touch
		if err := v.Touch(id.GFN); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.frame[id]; !ok {
			pfn, _ := v.Resolve(id.GFN)
			m.add(id, pfn, false)
		}
	case 1, 2: // Write a whole page of a small value, breaking CoW if protected
		if _, err := v.Write(id.GFN, 0, bytes.Repeat([]byte{byte(g.r.Intn(3))}, mem.PageSize)); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.frame[id]; ok {
			m.remove(id)
		}
		pfn, _ := v.Resolve(id.GFN)
		m.add(id, pfn, false)
	case 3, 4, 5: // Merge into another page's frame, equal or not
		dst, ok := g.mapped()
		if !ok {
			return
		}
		src, present := m.frame[id]
		_, err := h.Merge(id, dst)
		switch {
		case !present:
			if err != ErrNotPresent {
				t.Fatalf("Merge of absent %v: %v", id, err)
			}
		case src == dst:
		case err == ErrContentChanged:
			m.protect(dst, true)
			m.protect(src, false)
		case err != nil:
			t.Fatal(err)
		default:
			m.protect(src, true)
			m.protect(dst, true)
			m.remove(id)
			m.add(id, dst, true)
		}
	case 6: // Release
		v.Release(id.GFN)
		if _, ok := m.frame[id]; ok {
			m.remove(id)
		}
	case 7: // WriteProtect or Unprotect a mapped frame
		if pfn, ok := g.mapped(); ok {
			on := g.r.Bool(0.5)
			if on {
				h.WriteProtect(pfn)
			} else {
				h.Unprotect(pfn)
			}
			m.protect(pfn, on)
		}
	case 8: // Kill a VM: release every page and drop its mergeable hint
		if !g.r.Bool(0.2) {
			return
		}
		for gfn := GFN(0); int(gfn) < v.Pages(); gfn++ {
			if v.Present(gfn) {
				v.Release(gfn)
				m.remove(PageID{id.VM, gfn})
			}
		}
		v.Madvise(0, v.Pages(), false)
	case 9: // State, then SetState into this hypervisor or a fresh one
		g.restore()
	}
}

// restore checkpoints the hypervisor and its memory and restores the image
// into this hypervisor or a fresh one, which must read back identically.
func (g *rmapProgram) restore() {
	t := g.t
	ps, err := g.h.Phys.State()
	if err != nil {
		t.Fatal(err)
	}
	hs := g.h.State()
	target := g.h
	if g.r.Bool(0.5) {
		target = newHV(g.frames)
	}
	if err := target.Phys.SetState(ps); err != nil {
		t.Fatal(err)
	}
	if err := target.SetState(hs); err != nil {
		t.Fatal(err)
	}
	if back := target.State(); !reflect.DeepEqual(back, hs) {
		t.Fatal("State → SetState → State is not identical")
	}
	g.h = target
}

// compare checks every reverse-map observable against the model.
func (g *rmapProgram) compare() {
	t, h, m := g.t, g.h, g.m
	wantFrames, wantMappers := 0, 0
	byPage := func(a, b PageID) int { return cmp.Or(cmp.Compare(a.VM, b.VM), cmp.Compare(a.GFN, b.GFN)) }
	for pfn := mem.PFN(0); int(pfn) < g.frames; pfn++ {
		want, got := slices.Clone(m.mappers[pfn]), h.Mappers(pfn)
		slices.SortFunc(want, byPage)
		slices.SortFunc(got, byPage)
		if !slices.Equal(got, want) || h.MapperCount(pfn) != len(want) ||
			h.Mapped(pfn) != (len(want) > 0) || h.Shared(pfn) != (len(want) > 1) {
			t.Fatalf("frame %d: mappers %v (count %d), model %v", pfn, got, h.MapperCount(pfn), want)
		}
		if len(want) > 0 && h.Phys.Get(pfn).Refs() != len(want) {
			t.Fatalf("frame %d: refcount %d, %d mappers", pfn, h.Phys.Get(pfn).Refs(), len(want))
		}
		if len(want) > 1 {
			wantFrames++
			wantMappers += len(want)
		}
	}
	if frames, mappers := h.SharedFrames(); frames != wantFrames || mappers != wantMappers {
		t.Fatalf("SharedFrames = %d/%d, model %d/%d", frames, mappers, wantFrames, wantMappers)
	}
	for vmID := range g.nVM {
		v := h.VM(vmID)
		for gfn := GFN(0); int(gfn) < g.nPg; gfn++ {
			id := PageID{vmID, gfn}
			pfn, present := v.Resolve(gfn)
			wantPFN, wantPresent := m.frame[id]
			if present != wantPresent || (present && (pfn != wantPFN || v.WriteProtected(gfn) != m.prot[id])) {
				t.Fatalf("%v: present %v frame %d protected %v, model %v %d %v",
					id, present, pfn, v.WriteProtected(gfn), wantPresent, wantPFN, m.prot[id])
			}
		}
	}
}

// TestRmapMatchesModel runs random programs of Touch, CoW-breaking Write,
// Merge (of equal and of diverged pages), Release, VM kills, WriteProtect,
// Unprotect and State → SetState, and after every step requires the
// threaded reverse map to agree with a plain map from frame to mappers:
// MapperCount, Mapped, Shared, Mappers as a multiset, SharedFrames,
// refcounts, and every page's frame and write protection.
func TestRmapMatchesModel(t *testing.T) {
	const nVM, nPg = 3, 8
	frames := nVM * nPg
	for seed := uint64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			g := &rmapProgram{
				t: t, r: sim.NewRNG(seed), h: newHV(frames), frames: frames, nVM: nVM, nPg: nPg,
				m: &rmapModel{mappers: map[mem.PFN][]PageID{}, frame: map[PageID]mem.PFN{}, prot: map[PageID]bool{}},
			}
			for range nVM {
				g.h.NewVM(nPg * mem.PageSize)
			}
			for range 300 {
				g.step()
				g.compare()
			}
		})
	}
}

// TestSetStateRejectsInconsistentRmap feeds SetState reverse maps that do
// not match the page tables: a mapper listed twice, a mapper under a frame
// it does not map, a present page no list names, a page that does not
// exist, and a mapping past the machine. Each is an error.
func TestSetStateRejectsInconsistentRmap(t *testing.T) {
	h := newHV(8)
	a, b := h.NewVM(2*mem.PageSize), h.NewVM(2*mem.PageSize)
	a.Touch(0)
	b.Touch(0)
	dst, _ := b.Resolve(0)
	if _, err := h.Merge(PageID{a.ID, 0}, dst); err != nil {
		t.Fatal(err)
	}
	a.Write(1, 0, []byte{1})
	other, _ := a.Resolve(1)
	for name, bad := range map[string]func(st *HypervisorState){
		"listed twice":  func(st *HypervisorState) { st.Rmap[dst] = append(st.Rmap[dst], st.Rmap[dst][0]) },
		"wrong frame":   func(st *HypervisorState) { st.Rmap[other] = append(st.Rmap[other], st.Rmap[dst][0]) },
		"missing":       func(st *HypervisorState) { st.Rmap[dst] = st.Rmap[dst][1:] },
		"no such page":  func(st *HypervisorState) { st.Rmap[dst] = append(st.Rmap[dst], PageID{a.ID, 2}) },
		"no such VM":    func(st *HypervisorState) { st.Rmap[dst] = append(st.Rmap[dst], PageID{2, 0}) },
		"frame too far": func(st *HypervisorState) { st.VMs[a.ID].Table[1].PFN = 8 },
	} {
		st := h.State()
		bad(&st)
		if err := newHV(8).SetState(st); err == nil {
			t.Errorf("%s: SetState accepted the image", name)
		}
	}
}
