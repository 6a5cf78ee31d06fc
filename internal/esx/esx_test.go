package esx

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/pageforge"
	"repro/internal/sim"
	"repro/internal/tailbench"
	"repro/internal/vm"
)

// world builds a hypervisor and one VM per content list, all mergeable.
func world(t testing.TB, frames int, contents ...[]byte) (*vm.Hypervisor, []*vm.VM) {
	t.Helper()
	h := vm.NewHypervisor(uint64(frames) * mem.PageSize)
	var vms []*vm.VM
	for _, cs := range contents {
		v := h.NewVM(uint64(len(cs)) * mem.PageSize)
		v.Madvise(0, len(cs), true)
		for g, c := range cs {
			if _, err := v.Write(vm.GFN(g), 0, bytes.Repeat([]byte{c}, mem.PageSize)); err != nil {
				t.Fatal(err)
			}
		}
		vms = append(vms, v)
	}
	return h, vms
}

func softwareTable(h *vm.Hypervisor) *Table {
	return New(h, SoftwareComparer{Phys: h.Phys})
}

func hardwareTable(h *vm.Hypervisor) (*Table, *HardwareComparer) {
	mc := memctrl.New(dram.New(dram.DefaultConfig()), h.Phys, nil)
	cmp := NewHardwareComparer(pageforge.NewEngine(mc))
	return New(h, cmp), cmp
}

func TestHintThenPromotion(t *testing.T) {
	h, _ := world(t, 64, []byte{7}, []byte{7})
	tab := softwareTable(h)
	// Page A: hint insert. Page B: hint promotion (merge).
	if m, _ := tab.ScanOne(); m {
		t.Fatal("first sighting merged")
	}
	if tab.Stats.HintInserts != 1 {
		t.Fatalf("HintInserts = %d", tab.Stats.HintInserts)
	}
	m, _ := tab.ScanOne()
	if !m {
		t.Fatal("second identical page did not merge")
	}
	if tab.Stats.HintPromotions != 1 {
		t.Fatalf("HintPromotions = %d", tab.Stats.HintPromotions)
	}
	if h.Phys.AllocatedFrames() != 1 {
		t.Fatalf("frames = %d, want 1", h.Phys.AllocatedFrames())
	}
}

func TestThirdPageJoinsSharedFrame(t *testing.T) {
	h, _ := world(t, 64, []byte{7}, []byte{7}, []byte{7})
	tab := softwareTable(h)
	for i := 0; i < 3; i++ {
		tab.ScanOne()
	}
	if tab.Stats.SharedMerges != 1 || tab.Stats.HintPromotions != 1 {
		t.Fatalf("merges shared/promo = %d/%d, want 1/1",
			tab.Stats.SharedMerges, tab.Stats.HintPromotions)
	}
	if h.Phys.AllocatedFrames() != 1 {
		t.Fatalf("frames = %d", h.Phys.AllocatedFrames())
	}
	if tab.SharedFrames() != 1 {
		t.Fatalf("shared frames = %d", tab.SharedFrames())
	}
}

func TestDistinctPagesOnlyHint(t *testing.T) {
	h, _ := world(t, 64, []byte{1, 2}, []byte{3, 4})
	tab := softwareTable(h)
	tab.RunToSteadyState(4)
	if tab.Stats.SharedMerges+tab.Stats.HintPromotions != 0 {
		t.Fatal("distinct pages merged")
	}
	if h.Phys.AllocatedFrames() != 4 {
		t.Fatalf("frames = %d", h.Phys.AllocatedFrames())
	}
}

func TestChangedHintIsRefreshed(t *testing.T) {
	h, vms := world(t, 64, []byte{5}, []byte{5})
	tab := softwareTable(h)
	tab.ScanOne() // hint for content 5 -> page A
	// Page A changes before B is scanned: the stale hint must not merge.
	vms[0].Write(0, 0, bytes.Repeat([]byte{9}, mem.PageSize))
	m, _ := tab.ScanOne() // B: hint's hash no longer matches
	if m {
		t.Fatal("merged against a changed hint")
	}
	if tab.Stats.HintUpdates != 1 {
		t.Fatalf("HintUpdates = %d", tab.Stats.HintUpdates)
	}
	// Next pass: A (content 9) re-hinted, B's hint holds content 5... then
	// nothing identical exists, so still no merges.
	tab.RunToSteadyState(4)
	if h.Merges != 0 {
		t.Fatal("phantom merge")
	}
}

func TestCowBreakThenRemerge(t *testing.T) {
	h, vms := world(t, 64, []byte{5}, []byte{5})
	tab := softwareTable(h)
	tab.RunToSteadyState(4)
	if h.Merges != 1 {
		t.Fatal("setup merge failed")
	}
	vms[0].Write(0, 0, bytes.Repeat([]byte{6}, mem.PageSize))
	vms[0].Write(0, 0, bytes.Repeat([]byte{5}, mem.PageSize))
	tab.RunToSteadyState(4)
	if h.Merges != 2 {
		t.Fatalf("Merges = %d, want re-merge into the shared frame", h.Merges)
	}
	if h.Phys.AllocatedFrames() != 1 {
		t.Fatalf("frames = %d", h.Phys.AllocatedFrames())
	}
}

func TestSharedFramePrunedAfterAllLeave(t *testing.T) {
	h, vms := world(t, 64, []byte{5}, []byte{5})
	tab := softwareTable(h)
	tab.RunToSteadyState(4)
	vms[0].Write(0, 0, bytes.Repeat([]byte{1}, mem.PageSize))
	vms[1].Write(0, 0, bytes.Repeat([]byte{2}, mem.PageSize))
	// The next scans prune the dead shared frame (its only ref is ours).
	tab.RunToSteadyState(4)
	if tab.SharedFrames() != 0 {
		t.Fatalf("shared frames = %d, want 0", tab.SharedFrames())
	}
	if h.Phys.AllocatedFrames() != 2 {
		t.Fatalf("frames = %d, want the two private pages", h.Phys.AllocatedFrames())
	}
}

func TestHardwareListModeMatchesSoftware(t *testing.T) {
	layout := [][]byte{
		{10, 11, 12, 13, 10},
		{10, 11, 12, 14, 15},
		{10, 11, 16, 13, 15},
	}
	hs, _ := world(t, 256, layout...)
	sw := softwareTable(hs)
	sw.RunToSteadyState(6)

	hh, _ := world(t, 256, layout...)
	hw, cmp := hardwareTable(hh)
	hw.RunToSteadyState(6)

	if hs.Phys.AllocatedFrames() != hh.Phys.AllocatedFrames() {
		t.Fatalf("software %d frames vs hardware %d",
			hs.Phys.AllocatedFrames(), hh.Phys.AllocatedFrames())
	}
	if hw.Stats.SharedMerges != sw.Stats.SharedMerges ||
		hw.Stats.HintPromotions != sw.Stats.HintPromotions {
		t.Fatalf("merge paths differ: hw %+v vs sw %+v", hw.Stats, sw.Stats)
	}
	if cmp.Batches == 0 || cmp.Polls == 0 {
		t.Fatal("hardware never used")
	}
	if cmp.Now() == 0 {
		t.Fatal("no hardware time consumed")
	}
}

func TestHardwareListBatchesLongBuckets(t *testing.T) {
	// A bucket longer than one Scan Table load (31 entries) must be walked
	// in multiple batches. Build 40 shared frames colliding... instead:
	// directly exercise the comparer with 40 candidate frames.
	h, _ := world(t, 256, make([]byte, 0))
	phys := h.Phys
	var frames []mem.PFN
	for i := 0; i < 40; i++ {
		pfn, err := phys.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		phys.WriteAt(pfn, 0, bytes.Repeat([]byte{byte(i + 1)}, mem.PageSize))
		frames = append(frames, pfn)
	}
	cand, _ := phys.Alloc()
	phys.CopyPage(cand, frames[37]) // match deep in batch 2
	mc := memctrl.New(dram.New(dram.DefaultConfig()), phys, nil)
	cmp := NewHardwareComparer(pageforge.NewEngine(mc))
	match, bytesRead := cmp.SamePage(cand, frames)
	if match != 37 {
		t.Fatalf("match = %d, want 37", match)
	}
	if cmp.Batches < 2 {
		t.Fatalf("batches = %d, want >= 2 for 40 entries", cmp.Batches)
	}
	if bytesRead == 0 {
		t.Fatal("no bytes accounted")
	}
	// A no-match probe walks everything.
	miss, _ := phys.Alloc()
	phys.WriteAt(miss, 0, []byte{0xEE})
	if m, _ := cmp.SamePage(miss, frames); m != -1 {
		t.Fatalf("phantom match %d", m)
	}
}

func TestESXOnTailbenchImageMatchesKSMSavings(t *testing.T) {
	// Both algorithms must find the same duplicate structure on a real
	// deployment image (they differ in cost, not in what is mergeable).
	app := *tailbench.ProfileByName("img_dnn")
	app.PagesPerVM = 200
	imgA, err := tailbench.BuildImage(app, 6, 6*200*2, 11)
	if err != nil {
		t.Fatal(err)
	}
	esxTab := softwareTable(imgA.HV)
	esxTab.RunToSteadyState(8)

	imgB, err := tailbench.BuildImage(app, 6, 6*200*2, 11)
	if err != nil {
		t.Fatal(err)
	}
	ks := ksm.NewScanner(ksm.NewAlgorithm(imgB.HV, ksm.JHasher{}), ksm.DefaultCosts())
	ks.RunToSteadyState(12)

	fa := imgA.MeasureFootprint()
	fb := imgB.MeasureFootprint()
	if fa.FramesAllocated != fb.FramesAllocated {
		t.Fatalf("ESX %d frames vs KSM %d", fa.FramesAllocated, fb.FramesAllocated)
	}
	// ESX converges with far fewer comparisons (hash-indexed, no trees).
	if esxTab.Stats.Comparisons >= ks.Alg.Stable.Comparisons()+ks.Alg.Unstable.Comparisons() {
		t.Fatalf("ESX comparisons %d not below KSM's %d",
			esxTab.Stats.Comparisons, ks.Alg.Stable.Comparisons()+ks.Alg.Unstable.Comparisons())
	}
}

func TestRandomWorkloadsConvergeToContentGroups(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := sim.NewRNG(seed)
		const nVM, nPg = 4, 8
		contents := make([][]byte, nVM)
		distinct := map[byte]bool{}
		for i := range contents {
			contents[i] = make([]byte, nPg)
			for j := range contents[i] {
				c := byte(1 + r.Intn(7))
				contents[i][j] = c
				distinct[c] = true
			}
		}
		h, _ := world(&testing.T{}, 256, contents...)
		tab := softwareTable(h)
		tab.RunToSteadyState(10)
		return h.Phys.AllocatedFrames() == len(distinct)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPageHash64Distinctness(t *testing.T) {
	r := sim.NewRNG(3)
	seen := map[uint64]bool{}
	page := make([]byte, mem.PageSize)
	for i := 0; i < 20000; i++ {
		r.FillBytes(page)
		h := PageHash64(page)
		if seen[h] {
			t.Fatal("64-bit page hash collision on random data")
		}
		seen[h] = true
	}
	// Determinism.
	if PageHash64(page) != PageHash64(page) {
		t.Fatal("hash not deterministic")
	}
}
