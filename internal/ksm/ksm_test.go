package ksm

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

// world builds a hypervisor with one VM per content list; VM i's page j is
// filled with contents[i][j] repeated (0 means an untouched page remains
// untouched so it stays unbacked). All pages are madvised mergeable.
func world(t *testing.T, frames int, contents ...[]byte) (*vm.Hypervisor, []*vm.VM) {
	t.Helper()
	h := vm.NewHypervisor(uint64(frames) * mem.PageSize)
	var vms []*vm.VM
	for _, cs := range contents {
		v := h.NewVM(uint64(len(cs)) * mem.PageSize)
		v.Madvise(0, len(cs), true)
		for g, c := range cs {
			if c != 0 {
				if _, err := v.Write(vm.GFN(g), 0, bytes.Repeat([]byte{c}, mem.PageSize)); err != nil {
					t.Fatal(err)
				}
			}
		}
		vms = append(vms, v)
	}
	return h, vms
}

func newScanner(h *vm.Hypervisor) *Scanner {
	return NewScanner(NewAlgorithm(h, JHasher{}), DefaultCosts())
}

func TestTwoIdenticalPagesMergeInTwoPasses(t *testing.T) {
	h, _ := world(t, 64, []byte{7}, []byte{7})
	s := newScanner(h)
	if h.Phys.AllocatedFrames() != 2 {
		t.Fatal("setup")
	}
	// Pass 1: both pages first-seen, only hashes recorded.
	s.ScanBatch(2)
	if h.Merges != 0 {
		t.Fatal("merged on first sighting (hash must gate the unstable tree)")
	}
	// Pass 2: first page enters the unstable tree, second matches it.
	s.ScanBatch(2)
	if h.Merges != 1 {
		t.Fatalf("Merges = %d, want 1 after second pass", h.Merges)
	}
	// One data frame shared by both pages + the stable tree's held frame is
	// the same frame, so allocation drops from 2 to 1.
	if h.Phys.AllocatedFrames() != 1 {
		t.Fatalf("frames = %d, want 1", h.Phys.AllocatedFrames())
	}
	if s.Alg.Stable.Size() != 1 {
		t.Fatalf("stable tree size = %d, want 1", s.Alg.Stable.Size())
	}
	shared, sharing := s.Alg.SharingStats()
	if shared != 1 || sharing != 2 {
		t.Fatalf("sharing stats = %d/%d, want 1/2", shared, sharing)
	}
}

func TestThirdPageMergesViaStableTree(t *testing.T) {
	h, _ := world(t, 64, []byte{7}, []byte{7}, []byte{7})
	s := newScanner(h)
	s.ScanBatch(3) // pass 1: record hashes
	s.ScanBatch(3) // pass 2: unstable merge of first two, stable merge of third
	if h.Merges != 2 {
		t.Fatalf("Merges = %d, want 2", h.Merges)
	}
	if s.Alg.Stats.StableMerges != 1 || s.Alg.Stats.UnstableMerges != 1 {
		t.Fatalf("stable/unstable merges = %d/%d, want 1/1",
			s.Alg.Stats.StableMerges, s.Alg.Stats.UnstableMerges)
	}
	if h.Phys.AllocatedFrames() != 1 {
		t.Fatalf("frames = %d, want 1", h.Phys.AllocatedFrames())
	}
}

func TestDistinctPagesNeverMerge(t *testing.T) {
	h, _ := world(t, 64, []byte{1, 2}, []byte{3, 4})
	s := newScanner(h)
	for i := 0; i < 5; i++ {
		s.ScanBatch(4)
	}
	if h.Merges != 0 {
		t.Fatal("distinct pages merged")
	}
	if h.Phys.AllocatedFrames() != 4 {
		t.Fatalf("frames = %d, want 4", h.Phys.AllocatedFrames())
	}
}

func TestVolatilePageIsNeverMerged(t *testing.T) {
	h, vms := world(t, 64, []byte{9}, []byte{9})
	s := newScanner(h)
	// Rewrite VM 1's page between every scan interval with fresh content,
	// then back to 9: hash changes pass-to-pass, so it must stay dropped.
	for i := 0; i < 6; i++ {
		s.ScanBatch(1) // scans one page at a time
		val := byte(10 + i)
		vms[1].Write(0, 0, bytes.Repeat([]byte{val}, mem.PageSize))
	}
	if h.Merges != 0 {
		t.Fatal("volatile page merged")
	}
	if s.Alg.Stats.HashMismatches == 0 {
		t.Fatal("hash mismatches not observed for volatile page")
	}
}

func TestZeroPagesAllMergeToOneFrame(t *testing.T) {
	// Touched-but-never-written pages are zero and should collapse to a
	// single frame ("when zero pages are merged, they are all merged into a
	// single page").
	h := vm.NewHypervisor(64 * mem.PageSize)
	v := h.NewVM(8 * mem.PageSize)
	v.Madvise(0, 8, true)
	for g := vm.GFN(0); g < 8; g++ {
		v.Touch(g)
	}
	s := newScanner(h)
	s.ScanBatch(8)
	s.ScanBatch(8)
	if h.Phys.AllocatedFrames() != 1 {
		t.Fatalf("frames = %d, want 1 shared zero frame", h.Phys.AllocatedFrames())
	}
	shared, sharing := s.Alg.SharingStats()
	if shared != 1 || sharing != 8 {
		t.Fatalf("sharing = %d/%d, want 1/8", shared, sharing)
	}
	// Zero pages take the ordinary Algorithm 1 path through the trees:
	// nothing writes the zero-merge or skip counters.
	if s.Alg.Stats.ZeroMerges != 0 || s.Alg.Stats.SmartSkips != 0 {
		t.Fatalf("ZeroMerges/SmartSkips = %d/%d, want 0/0", s.Alg.Stats.ZeroMerges, s.Alg.Stats.SmartSkips)
	}
}

func TestCoWBreakThenRemerge(t *testing.T) {
	h, vms := world(t, 64, []byte{5}, []byte{5})
	s := newScanner(h)
	s.ScanBatch(2)
	s.ScanBatch(2)
	if h.Merges != 1 {
		t.Fatal("setup: pages did not merge")
	}
	// VM 0 writes different content, then writes the shared content again.
	vms[0].Write(0, 0, bytes.Repeat([]byte{6}, mem.PageSize))
	if h.Unmerges != 1 {
		t.Fatal("write did not unmerge")
	}
	vms[0].Write(0, 0, bytes.Repeat([]byte{5}, mem.PageSize))
	// Two more passes: hash settles, page re-merges into the stable frame.
	s.ScanBatch(2)
	s.ScanBatch(2)
	if h.Merges != 2 {
		t.Fatalf("Merges = %d, want re-merge after CoW break", h.Merges)
	}
	if h.Phys.AllocatedFrames() != 1 {
		t.Fatalf("frames = %d, want 1", h.Phys.AllocatedFrames())
	}
}

func TestStableNodePrunedAfterAllSharersLeave(t *testing.T) {
	h, vms := world(t, 64, []byte{5}, []byte{5})
	s := newScanner(h)
	s.ScanBatch(2)
	s.ScanBatch(2)
	if s.Alg.Stable.Size() != 1 {
		t.Fatal("setup: no stable node")
	}
	// Both sharers diverge to unique contents.
	vms[0].Write(0, 0, bytes.Repeat([]byte{1}, mem.PageSize))
	vms[1].Write(0, 0, bytes.Repeat([]byte{2}, mem.PageSize))
	// Complete a full pass so EndPass prunes.
	s.ScanBatch(2)
	if s.Alg.Stable.Size() != 0 {
		t.Fatalf("stable size = %d, want 0 after prune", s.Alg.Stable.Size())
	}
	if s.Alg.Stats.StablePruned != 1 {
		t.Fatalf("StablePruned = %d, want 1", s.Alg.Stats.StablePruned)
	}
	// The stable tree's held frame must have been released: only the two
	// private frames remain.
	if h.Phys.AllocatedFrames() != 2 {
		t.Fatalf("frames = %d, want 2", h.Phys.AllocatedFrames())
	}
}

func TestScanBatchAccounting(t *testing.T) {
	h, _ := world(t, 64, []byte{1, 1, 2}, []byte{1, 3, 2})
	s := newScanner(h)
	r1 := s.ScanBatch(6)
	if r1.Scanned != 6 || !r1.PassEnded {
		t.Fatalf("batch 1: scanned=%d passEnded=%v", r1.Scanned, r1.PassEnded)
	}
	if r1.Cycles.Hash == 0 || r1.Cycles.Other == 0 {
		t.Fatalf("pass 1 cycles: %+v (hash and overhead must be nonzero)", r1.Cycles)
	}
	r2 := s.ScanBatch(6)
	if r2.Cycles.Compare == 0 {
		t.Fatalf("pass 2 cycles: %+v (tree comparisons must be nonzero)", r2.Cycles)
	}
	if r2.Bytes == 0 {
		t.Fatal("no cache footprint recorded")
	}
	if got := s.Cycles.Total(); got != r1.Cycles.Total()+r2.Cycles.Total() {
		t.Fatalf("cumulative cycles %d != sum of batches", got)
	}
}

func TestHashGatingCountsMatches(t *testing.T) {
	h, _ := world(t, 64, []byte{1}, []byte{2})
	s := newScanner(h)
	s.ScanBatch(2) // first seen x2
	if s.Alg.Stats.HashFirstSeen != 2 {
		t.Fatalf("HashFirstSeen = %d, want 2", s.Alg.Stats.HashFirstSeen)
	}
	s.ScanBatch(2) // both unchanged
	if s.Alg.Stats.HashMatches != 2 {
		t.Fatalf("HashMatches = %d, want 2", s.Alg.Stats.HashMatches)
	}
}

func TestRunToSteadyStateConverges(t *testing.T) {
	// 4 VMs x 4 pages with heavy duplication across VMs.
	h, _ := world(t, 256,
		[]byte{10, 11, 12, 13},
		[]byte{10, 11, 12, 14},
		[]byte{10, 11, 15, 13},
		[]byte{10, 16, 12, 13},
	)
	s := newScanner(h)
	passes := s.RunToSteadyState(20)
	if passes >= 20 {
		t.Fatalf("did not converge in %d passes", passes)
	}
	// Duplicates: 10 x4 -> 1, 11 x3 -> 1, 12 x3 -> 1, 13 x3 -> 1; uniques
	// 14, 15, 16 stay. 16 pages -> 4 shared + 3 unique = 7 frames.
	if h.Phys.AllocatedFrames() != 7 {
		t.Fatalf("frames = %d, want 7", h.Phys.AllocatedFrames())
	}
	// A further pass changes nothing.
	merges := h.Merges
	s.ScanBatch(16)
	if h.Merges != merges {
		t.Fatal("steady state not stable")
	}
}

func TestUnmergedPagesNotScannedWithoutMadvise(t *testing.T) {
	h := vm.NewHypervisor(16 * mem.PageSize)
	v := h.NewVM(2 * mem.PageSize)
	v.Write(0, 0, bytes.Repeat([]byte{1}, mem.PageSize))
	v.Write(1, 0, bytes.Repeat([]byte{1}, mem.PageSize))
	// No madvise: nothing to scan.
	s := newScanner(h)
	if s.Alg.MergeablePages() != 0 {
		t.Fatal("non-advised pages in scan order")
	}
	if _, _, ok := s.ScanOne(); ok {
		t.Fatal("ScanOne succeeded with empty scan order")
	}
}

func TestRefreshOrderPicksUpNewRegions(t *testing.T) {
	h := vm.NewHypervisor(16 * mem.PageSize)
	v := h.NewVM(4 * mem.PageSize)
	s := newScanner(h)
	if s.Alg.MergeablePages() != 0 {
		t.Fatal("setup")
	}
	v.Madvise(0, 4, true)
	s.Alg.RefreshOrder()
	if s.Alg.MergeablePages() != 4 {
		t.Fatalf("MergeablePages = %d, want 4", s.Alg.MergeablePages())
	}
}

func TestLargeRandomDuplicationConsistency(t *testing.T) {
	// A randomized soup of duplicate/unique pages across 5 VMs: after
	// convergence, every set of byte-identical pages shares one frame, and
	// total content is preserved.
	r := sim.NewRNG(123)
	const nVM, nPg = 5, 12
	contents := make([][]byte, nVM)
	for i := range contents {
		contents[i] = make([]byte, nPg)
		for j := range contents[i] {
			contents[i][j] = byte(1 + r.Intn(6)) // heavy duplication
		}
	}
	h, vms := world(t, 1024, contents...)
	s := newScanner(h)
	s.RunToSteadyState(30)

	distinct := map[byte]bool{}
	for _, cs := range contents {
		for _, c := range cs {
			distinct[c] = true
		}
	}
	if got := h.Phys.AllocatedFrames(); got != len(distinct) {
		t.Fatalf("frames = %d, want %d distinct contents", got, len(distinct))
	}
	// Data integrity: every page still reads back its content.
	buf := make([]byte, 1)
	for i, cs := range contents {
		for j, c := range cs {
			vms[i].Read(vm.GFN(j), 0, buf)
			if buf[0] != c {
				t.Fatalf("vm%d page %d reads %d, want %d", i, j, buf[0], c)
			}
		}
	}
}

// newHVNoPages builds a hypervisor with no mergeable pages.
func newHVNoPages(t *testing.T) *vm.Hypervisor {
	t.Helper()
	h := vm.NewHypervisor(16 * mem.PageSize)
	h.NewVM(4 * mem.PageSize) // no madvise
	return h
}
