package pageforge

import (
	"bytes"
	"testing"

	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/sim"
)

// rig is a memory controller + physical memory test fixture.
type rig struct {
	phys *mem.Phys
	mc   *memctrl.Controller
	eng  *Engine
}

func newRig(frames int) *rig {
	phys := mem.New(uint64(frames) * mem.PageSize)
	mc := memctrl.New(dram.New(dram.DefaultConfig()), phys, nil)
	return &rig{phys: phys, mc: mc, eng: NewEngine(mc)}
}

// page allocates a frame with every byte set to id, except pages[0]=seq to
// make contents ordered by (id, seq).
func (r *rig) page(id byte) mem.PFN {
	pfn, err := r.phys.Alloc()
	if err != nil {
		panic(err)
	}
	r.phys.WriteAt(pfn, 0, bytes.Repeat([]byte{id}, mem.PageSize))
	return pfn
}

// run triggers and waits for completion, mimicking one OS poll cycle.
func (r *rig) run(now uint64) (PFEInfo, uint64) {
	r.eng.Trigger(now)
	done := r.eng.DoneAt()
	return r.eng.GetPFEInfo(done), done
}

func TestSingleEntryDuplicateDetected(t *testing.T) {
	r := newRig(8)
	cand := r.page(5)
	other := r.page(5)
	r.eng.InsertPPN(0, other, InvalidIndex, InvalidIndex)
	r.eng.InsertPFE(cand, true, 0)
	info, _ := r.run(0)
	if !info.Scanned || !info.Duplicate {
		t.Fatalf("info = %v, want S+D", info)
	}
	if info.Ptr != 0 {
		t.Fatalf("Ptr = %d, want matched entry 0", info.Ptr)
	}
	if r.eng.Duplicates != 1 || r.eng.PagesCompared != 1 {
		t.Fatalf("stats dup=%d cmp=%d", r.eng.Duplicates, r.eng.PagesCompared)
	}
}

func TestSingleEntryMismatchSetsOnlyScanned(t *testing.T) {
	r := newRig(8)
	cand := r.page(5)
	other := r.page(9)
	r.eng.InsertPPN(0, other, InvalidIndex, InvalidIndex)
	r.eng.InsertPFE(cand, true, 0)
	info, _ := r.run(0)
	if !info.Scanned || info.Duplicate {
		t.Fatalf("info = %v, want S only", info)
	}
	// 5 < 9: traversal followed Less, which is invalid.
	if info.Ptr != InvalidIndex {
		t.Fatalf("Ptr = %d, want InvalidIndex", info.Ptr)
	}
}

func TestTreeTraversalFollowsLessMore(t *testing.T) {
	// Figure 2's example: a tree with the candidate matching a node two
	// levels down. Layout entries as the Scan Table in Figure 2(b).
	r := newRig(16)
	cand := r.page(40) // equal to "Page 4"
	p3 := r.page(30)
	p1 := r.page(10)
	p5 := r.page(50)
	p0 := r.page(5)
	p2 := r.page(20)
	p4 := r.page(40)
	// Entries: 0:P3(root) 1:P1 2:P5 3:P0 4:P2 5:P4
	r.eng.InsertPPN(0, p3, 1, 2)
	r.eng.InsertPPN(1, p1, 3, 4)
	r.eng.InsertPPN(2, p5, 5, InvalidIndex)
	r.eng.InsertPPN(3, p0, InvalidIndex, InvalidIndex)
	r.eng.InsertPPN(4, p2, InvalidIndex, InvalidIndex)
	r.eng.InsertPPN(5, p4, InvalidIndex, InvalidIndex)
	r.eng.InsertPFE(cand, true, 0)
	info, _ := r.run(0)
	if !info.Duplicate || info.Ptr != 5 {
		t.Fatalf("info = %v, want duplicate at entry 5", info)
	}
	// Path: P3 (greater -> More=2), P5 (smaller -> Less=5), P4 (match).
	if r.eng.PagesCompared != 3 {
		t.Fatalf("compared %d pages, want 3", r.eng.PagesCompared)
	}
}

func TestSentinelPtrReportedForOutOfTableChild(t *testing.T) {
	r := newRig(8)
	cand := r.page(50)
	root := r.page(30)
	r.eng.InsertPPN(0, root, InvalidIndex, 77) // More = software sentinel
	r.eng.InsertPFE(cand, false, 0)
	info, _ := r.run(0)
	if info.Duplicate {
		t.Fatal("false duplicate")
	}
	if info.Ptr != 77 {
		t.Fatalf("Ptr = %d, want the sentinel 77", info.Ptr)
	}
}

func TestHashKeyGeneratedInBackground(t *testing.T) {
	r := newRig(8)
	cand := r.page(7)
	other := r.page(7)
	r.eng.InsertPPN(0, other, InvalidIndex, InvalidIndex)
	r.eng.InsertPFE(cand, false, 0)
	info, _ := r.run(0)
	// Duplicate found: hash completion is forced even without Last Refill.
	if !info.HashReady {
		t.Fatal("hash not ready after duplicate")
	}
	want := ecc.PageKey(r.phys.Page(cand), r.eng.Offsets())
	if info.Hash != want {
		t.Fatalf("hash = %#x, want %#x (ECC page key)", info.Hash, want)
	}
}

func TestHashForcedByLastRefillOnEmptyTable(t *testing.T) {
	r := newRig(8)
	cand := r.page(3)
	r.eng.InsertPFE(cand, true, InvalidIndex)
	info, done := r.run(0)
	if !info.Scanned || info.Duplicate {
		t.Fatalf("info = %v", info)
	}
	if !info.HashReady {
		t.Fatal("Last Refill did not force hash completion")
	}
	if done == 0 {
		t.Fatal("hash generation consumed no time")
	}
	// Exactly the four sampled lines were fetched.
	if r.eng.LinesFetched != ecc.Sections {
		t.Fatalf("fetched %d lines, want %d", r.eng.LinesFetched, ecc.Sections)
	}
}

func TestHashNotReadyWithoutLastRefill(t *testing.T) {
	r := newRig(8)
	cand := r.page(3)
	other := r.page(9) // diverges at line 0: almost no key progress
	r.eng.InsertPPN(0, other, InvalidIndex, InvalidIndex)
	r.eng.InsertPFE(cand, false, 0)
	info, _ := r.run(0)
	if info.HashReady {
		t.Fatal("hash ready after a single line-0 comparison without L")
	}
	// Refill with L set: the missing lines are fetched.
	r.eng.UpdatePFE(true, InvalidIndex)
	info, _ = r.run(r.eng.DoneAt())
	if !info.HashReady {
		t.Fatal("refill with L did not complete the hash")
	}
}

func TestHashPersistsAcrossUpdatePFE(t *testing.T) {
	r := newRig(8)
	cand := r.page(1)
	r.eng.InsertPFE(cand, true, InvalidIndex)
	info1, done := r.run(0)
	r.eng.UpdatePFE(false, InvalidIndex)
	info2, _ := r.run(done)
	if !info2.HashReady || info2.Hash != info1.Hash {
		t.Fatal("update_PFE lost the generated hash")
	}
	// insert_PFE for a new candidate resets it.
	r.eng.InsertPFE(r.page(2), false, InvalidIndex)
	info3, _ := r.run(r.eng.DoneAt())
	if info3.HashReady {
		t.Fatal("insert_PFE did not reset the hash assembler")
	}
}

func TestBusyVisibility(t *testing.T) {
	r := newRig(8)
	cand := r.page(5)
	other := r.page(5)
	r.eng.InsertPPN(0, other, InvalidIndex, InvalidIndex)
	r.eng.InsertPFE(cand, true, 0)
	r.eng.Trigger(100)
	if !r.eng.Busy(100) {
		t.Fatal("engine not busy right after trigger")
	}
	mid := (100 + r.eng.DoneAt()) / 2
	if info := r.eng.GetPFEInfo(mid); info.Scanned {
		t.Fatal("status bits visible before completion")
	}
	if info := r.eng.GetPFEInfo(r.eng.DoneAt()); !info.Scanned {
		t.Fatal("status bits not visible at completion")
	}
}

func TestTriggerWhileBusyPanics(t *testing.T) {
	r := newRig(8)
	r.eng.InsertPFE(r.page(1), true, InvalidIndex)
	r.eng.Trigger(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double trigger")
		}
	}()
	r.eng.Trigger(0)
}

func TestTriggerWithoutPFEPanics(t *testing.T) {
	r := newRig(8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic without insert_PFE")
		}
	}()
	r.eng.Trigger(0)
}

func TestInsertPPNBoundsPanics(t *testing.T) {
	r := newRig(8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range index")
		}
	}()
	r.eng.InsertPPN(NumOtherPages, 0, InvalidIndex, InvalidIndex)
}

func TestUpdateECCOffset(t *testing.T) {
	r := newRig(8)
	bad := ecc.KeyOffsets{0, 0, 99, 0}
	if err := r.eng.UpdateECCOffset(bad); err == nil {
		t.Fatal("invalid offsets accepted")
	}
	good := ecc.KeyOffsets{1, 2, 3, 4}
	if err := r.eng.UpdateECCOffset(good); err != nil {
		t.Fatal(err)
	}
	if r.eng.Offsets() != good {
		t.Fatal("offsets not applied")
	}
	// Keys now come from the new offsets.
	cand := r.page(9)
	r.eng.InsertPFE(cand, true, InvalidIndex)
	info, _ := r.run(0)
	if info.Hash != ecc.PageKey(r.phys.Page(cand), good) {
		t.Fatal("hash does not reflect new offsets")
	}
}

func TestDivergenceStopsLineFetches(t *testing.T) {
	r := newRig(8)
	cand := r.page(5)
	other := r.page(5)
	// Diverge at line 2 (byte 128).
	r.phys.WriteAt(other, 2*mem.LineSize, []byte{0xFF})
	r.eng.InsertPPN(0, other, InvalidIndex, InvalidIndex)
	r.eng.InsertPFE(cand, false, 0)
	r.run(0)
	// Lines 0,1,2 of each page were fetched: 6 total.
	if r.eng.LinesFetched != 6 {
		t.Fatalf("fetched %d lines, want 6 (stop at divergence)", r.eng.LinesFetched)
	}
}

func TestFullCompareFetchesWholePages(t *testing.T) {
	r := newRig(8)
	cand := r.page(5)
	other := r.page(5)
	r.eng.InsertPPN(0, other, InvalidIndex, InvalidIndex)
	r.eng.InsertPFE(cand, false, 0)
	info, _ := r.run(0)
	if !info.Duplicate {
		t.Fatal("identical pages not detected")
	}
	if r.eng.LinesFetched != 2*mem.LinesPerPage {
		t.Fatalf("fetched %d lines, want %d", r.eng.LinesFetched, 2*mem.LinesPerPage)
	}
	if r.eng.BatchCycles.N() != 1 || r.eng.BatchCycles.Mean() <= 0 {
		t.Fatal("batch timing not recorded")
	}
}

func TestScanTableReset(t *testing.T) {
	var st ScanTable
	st.PFE = PFE{Valid: true, PPN: 3}
	st.Other[0] = OtherPage{Valid: true, PPN: 4}
	st.Reset()
	if st.PFE.Valid || st.Other[0].Valid {
		t.Fatal("Reset left valid entries")
	}
}

func TestLockstepOffsetsReused(t *testing.T) {
	// The paper: "PageForge reuses the offset for the two pages" — both
	// fetches of a pair target the same line index. Indirectly verified by
	// the data actually compared: construct pages identical except at a
	// known line and confirm comparison order via fetch counts.
	r := newRig(8)
	a := r.page(1)
	b := r.page(1)
	// Equal pages; make line 63 differ so the comparison runs to the end.
	r.phys.WriteAt(b, mem.PageSize-1, []byte{2})
	r.eng.InsertPPN(0, b, InvalidIndex, InvalidIndex)
	r.eng.InsertPFE(a, false, 0)
	info, _ := r.run(0)
	if info.Duplicate {
		t.Fatal("pages differing in last byte reported duplicate")
	}
	if r.eng.LinesFetched != 2*mem.LinesPerPage {
		t.Fatalf("fetched %d, want full lockstep walk", r.eng.LinesFetched)
	}
	if info.Ptr != InvalidIndex {
		t.Fatalf("Ptr = %d (1 < 2 should follow Less)", info.Ptr)
	}
}

func TestBatchTimingScalesWithWork(t *testing.T) {
	// A full-page duplicate comparison takes much longer than a first-line
	// divergence.
	r1 := newRig(8)
	a1, b1 := r1.page(1), r1.page(1)
	r1.eng.InsertPPN(0, b1, InvalidIndex, InvalidIndex)
	r1.eng.InsertPFE(a1, false, 0)
	_, longDone := r1.run(0)

	r2 := newRig(8)
	a2, b2 := r2.page(1), r2.page(9)
	r2.eng.InsertPPN(0, b2, InvalidIndex, InvalidIndex)
	r2.eng.InsertPFE(a2, false, 0)
	_, shortDone := r2.run(0)

	if longDone <= shortDone*4 {
		t.Fatalf("full compare %d cycles vs early divergence %d: expected >> 4x", longDone, shortDone)
	}
}

func TestRandomTreeSearchMatchesSoftware(t *testing.T) {
	// Property: hardware table traversal over a software-built search
	// layout finds a duplicate exactly when a content-equal page exists.
	r := newRig(128)
	rng := sim.NewRNG(42)
	for trial := 0; trial < 10; trial++ {
		ids := rng.Perm(20)
		pages := make([]mem.PFN, 0, 8)
		for i := 0; i < 8; i++ {
			pages = append(pages, r.page(byte(10+ids[i]*2))) // even ids
		}
		// Build a balanced BST layout over sorted contents.
		sorted := make([]mem.PFN, len(pages))
		copy(sorted, pages)
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if bytes.Compare(r.phys.Page(sorted[j]), r.phys.Page(sorted[i])) < 0 {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		type node struct{ lo, hi int }
		idx := map[int]int{} // sorted position -> table index
		var order []node
		var queue = []node{{0, len(sorted)}}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if n.lo >= n.hi {
				continue
			}
			mid := (n.lo + n.hi) / 2
			idx[mid] = len(order)
			order = append(order, n)
			queue = append(queue, node{n.lo, mid}, node{mid + 1, n.hi})
		}
		for mid, ti := range idx {
			n := order[ti]
			childIdx := func(lo, hi int) int {
				if lo >= hi {
					return InvalidIndex
				}
				return idx[(lo+hi)/2]
			}
			r.eng.InsertPPN(ti, sorted[mid], childIdx(n.lo, mid), childIdx(mid+1, n.hi))
		}
		// Probe with an equal page and an absent (odd id) page.
		dup := r.page(byte(10 + ids[3]*2))
		r.eng.InsertPFE(dup, true, 0)
		info, done := r.run(r.eng.DoneAt())
		if !info.Duplicate {
			t.Fatalf("trial %d: duplicate not found", trial)
		}
		miss := r.page(byte(11 + ids[4]*2))
		r.eng.InsertPFE(miss, true, 0)
		info, _ = r.run(done)
		if info.Duplicate {
			t.Fatalf("trial %d: phantom duplicate", trial)
		}
	}
}
