package pageforge

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/vm"
)

// driverRig builds a hypervisor with VMs and a PageForge driver over it.
type driverRig struct {
	hv  *vm.Hypervisor
	vms []*vm.VM
	drv *Driver
}

func newDriverRig(t *testing.T, frames int, contents ...[]byte) *driverRig {
	t.Helper()
	hv := vm.NewHypervisor(uint64(frames) * mem.PageSize)
	var vms []*vm.VM
	for _, cs := range contents {
		v := hv.NewVM(uint64(len(cs)) * mem.PageSize)
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
	mc := memctrl.New(dram.New(dram.DefaultConfig()), hv.Phys, nil)
	alg := ksm.NewAlgorithm(hv, ksm.NewECCHasher())
	drv := NewDriver(alg, NewEngine(mc), DefaultDriverConfig())
	return &driverRig{hv: hv, vms: vms, drv: drv}
}

func TestDriverMergesIdenticalPages(t *testing.T) {
	r := newDriverRig(t, 64, []byte{7}, []byte{7})
	// Pass 1: hashes recorded (hardware-generated ECC keys). Pass 2: merge.
	var now uint64
	_, m1, now := r.drv.ScanBatch(2, now, math.MaxUint64)
	if m1 != 0 {
		t.Fatal("merged on first pass")
	}
	_, m2, _ := r.drv.ScanBatch(2, now, math.MaxUint64)
	if m2 != 1 {
		t.Fatalf("merged %d on second pass, want 1", m2)
	}
	if r.hv.Phys.AllocatedFrames() != 1 {
		t.Fatalf("frames = %d, want 1", r.hv.Phys.AllocatedFrames())
	}
}

func TestDriverMatchesSoftwareScannerOutcome(t *testing.T) {
	// The same workload processed by software KSM and by the PageForge
	// driver must converge to identical memory layouts (same frame count,
	// same sharing stats) — the paper's "identical savings" claim.
	layout := [][]byte{
		{10, 11, 12, 13, 10},
		{10, 11, 12, 14, 15},
		{10, 11, 16, 13, 15},
		{17, 11, 12, 13, 10},
	}
	sw := func() (int, int, int) {
		hv := vm.NewHypervisor(512 * mem.PageSize)
		for _, cs := range layout {
			v := hv.NewVM(uint64(len(cs)) * mem.PageSize)
			v.Madvise(0, len(cs), true)
			for g, c := range cs {
				v.Write(vm.GFN(g), 0, bytes.Repeat([]byte{c}, mem.PageSize))
			}
		}
		s := ksm.NewScanner(ksm.NewAlgorithm(hv, ksm.JHasher{}), ksm.DefaultCosts())
		s.RunToSteadyState(20)
		sh, sg := s.Alg.SharingStats()
		return hv.Phys.AllocatedFrames(), sh, sg
	}
	hwFrames, hwShared, hwSharing := func() (int, int, int) {
		r := newDriverRig(t, 512, layout...)
		r.drv.RunToSteadyState(20)
		sh, sg := r.drv.Alg.SharingStats()
		return r.hv.Phys.AllocatedFrames(), sh, sg
	}()
	swFrames, swShared, swSharing := sw()
	if hwFrames != swFrames || hwShared != swShared || hwSharing != swSharing {
		t.Fatalf("hardware (%d frames, %d/%d sharing) != software (%d frames, %d/%d)",
			hwFrames, hwShared, hwSharing, swFrames, swShared, swSharing)
	}
}

func TestDriverDeepTreeMultiBatchSearch(t *testing.T) {
	// Enough distinct pages that the stable tree exceeds one Scan Table
	// batch (31 entries), forcing sentinel-based refills.
	r := sim.NewRNG(5)
	var contents [][]byte
	// 3 VMs x 40 pages: 120 pages over ~60 distinct values; every value
	// appears at least twice across VMs so the stable tree grows large.
	for v := 0; v < 3; v++ {
		cs := make([]byte, 40)
		for i := range cs {
			cs[i] = byte(1 + (i*3+v*40+r.Intn(2))%120)
		}
		contents = append(contents, cs)
	}
	rig := newDriverRig(t, 2048, contents...)
	rig.drv.RunToSteadyState(30)

	// Independent verification: group pages by content, count frames.
	distinct := map[byte]bool{}
	for _, cs := range contents {
		for _, c := range cs {
			distinct[c] = true
		}
	}
	if got := rig.hv.Phys.AllocatedFrames(); got != len(distinct) {
		t.Fatalf("frames = %d, want %d distinct contents", got, len(distinct))
	}
	if rig.drv.Batches == 0 || rig.drv.Polls == 0 {
		t.Fatal("hardware was never used")
	}
}

func TestDriverHashGatingWithECCKeys(t *testing.T) {
	r := newDriverRig(t, 64, []byte{3}, []byte{4})
	var now uint64
	_, _, now = r.drv.ScanBatch(2, now, math.MaxUint64)
	if r.drv.Alg.Stats.HashFirstSeen != 2 {
		t.Fatalf("HashFirstSeen = %d", r.drv.Alg.Stats.HashFirstSeen)
	}
	_, _, now = r.drv.ScanBatch(2, now, math.MaxUint64)
	if r.drv.Alg.Stats.HashMatches != 2 {
		t.Fatalf("HashMatches = %d, want 2 (pages unchanged)", r.drv.Alg.Stats.HashMatches)
	}
	// Change a page between passes in a *sampled* line so the ECC key
	// catches it (section 0 samples line DefaultKeyOffsets[0]).
	r.vms[0].Write(0, ecc.DefaultKeyOffsets.LineIndex(0)*64, []byte{99})
	_, _, _ = r.drv.ScanBatch(2, now, math.MaxUint64)
	if r.drv.Alg.Stats.HashMismatches == 0 {
		t.Fatal("ECC key missed a sampled-line change")
	}
}

func TestDriverVolatilePageNotMerged(t *testing.T) {
	r := newDriverRig(t, 64, []byte{9}, []byte{9})
	var now uint64
	for i := 0; i < 6; i++ {
		_, _, now = r.drv.ScanBatch(1, now, math.MaxUint64)
		// Touch a sampled line each interval so the key flips.
		r.vms[1].Write(0, 0, []byte{byte(20 + i)})
	}
	if r.hv.Merges != 0 {
		t.Fatal("volatile page merged")
	}
}

func TestDriverCoreCyclesAreSmall(t *testing.T) {
	// The whole point of PageForge: the OS core time is a tiny fraction of
	// the wall-clock the hardware spends scanning.
	r := newDriverRig(t, 512,
		[]byte{1, 2, 3, 4, 5, 6, 7, 8},
		[]byte{1, 2, 3, 4, 5, 6, 7, 8},
	)
	var now uint64
	_, _, now = r.drv.ScanBatch(16, 0, math.MaxUint64)
	_, _, now = r.drv.ScanBatch(16, now, math.MaxUint64)
	if now == 0 {
		t.Fatal("no wall-clock progress")
	}
	frac := float64(r.drv.CoreCycles) / float64(now)
	if frac > 0.10 {
		t.Fatalf("driver core cycles are %.1f%% of wall clock; hardware offload broken", frac*100)
	}
}

func TestDriverRecoversAfterCoWBreak(t *testing.T) {
	r := newDriverRig(t, 64, []byte{5}, []byte{5})
	var now uint64
	_, _, now = r.drv.ScanBatch(2, now, math.MaxUint64)
	_, _, now = r.drv.ScanBatch(2, now, math.MaxUint64)
	if r.hv.Merges != 1 {
		t.Fatal("setup merge failed")
	}
	r.vms[0].Write(0, 0, bytes.Repeat([]byte{6}, mem.PageSize))
	r.vms[0].Write(0, 0, bytes.Repeat([]byte{5}, mem.PageSize))
	_, _, now = r.drv.ScanBatch(2, now, math.MaxUint64)
	_, _, _ = r.drv.ScanBatch(2, now, math.MaxUint64)
	if r.hv.Merges != 2 {
		t.Fatalf("Merges = %d, want re-merge", r.hv.Merges)
	}
}

func TestDriverEmptyScanOrder(t *testing.T) {
	hv := vm.NewHypervisor(16 * mem.PageSize)
	hv.NewVM(4 * mem.PageSize) // no madvise
	mc := memctrl.New(dram.New(dram.DefaultConfig()), hv.Phys, nil)
	drv := NewDriver(ksm.NewAlgorithm(hv, ksm.NewECCHasher()), NewEngine(mc), DefaultDriverConfig())
	if _, _, ok := drv.ScanOne(0); ok {
		t.Fatal("ScanOne succeeded with nothing to scan")
	}
}

func TestDriverWallClockAdvancesByPolls(t *testing.T) {
	r := newDriverRig(t, 64, []byte{1}, []byte{2})
	_, t1, ok := r.drv.ScanOne(0)
	if !ok {
		t.Fatal("scan failed")
	}
	if t1%r.drv.Cfg.PollInterval != 0 {
		t.Fatalf("completion %d not quantized to poll interval", t1)
	}
	if t1 == 0 {
		t.Fatal("no time consumed")
	}
}

// The central claim, property-tested: over random deployments and churn,
// the hardware driver and the software scanner converge to identical
// memory layouts (same frame count, same sharing statistics).
func TestDriverScannerEquivalenceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for seed := uint64(1); seed <= 12; seed++ {
		r := sim.NewRNG(seed)
		const nVM = 4
		nPg := 6 + r.Intn(10)
		contents := make([][]byte, nVM)
		for i := range contents {
			contents[i] = make([]byte, nPg)
			for j := range contents[i] {
				contents[i][j] = byte(1 + r.Intn(8))
			}
		}
		build := func() (*vm.Hypervisor, []*vm.VM) {
			hv := vm.NewHypervisor(uint64(nVM*nPg*4) * mem.PageSize)
			var vms []*vm.VM
			for _, cs := range contents {
				v := hv.NewVM(uint64(len(cs)) * mem.PageSize)
				v.Madvise(0, len(cs), true)
				for g, c := range cs {
					v.Write(vm.GFN(g), 0, bytes.Repeat([]byte{c}, mem.PageSize))
				}
				vms = append(vms, v)
			}
			return hv, vms
		}

		// Identical churn schedules on both sides.
		churn := func(vms []*vm.VM, rng *sim.RNG) {
			for k := 0; k < 3; k++ {
				v := vms[rng.Intn(nVM)]
				g := vm.GFN(rng.Intn(nPg))
				v.Write(g, 0, bytes.Repeat([]byte{byte(1 + rng.Intn(8))}, mem.PageSize))
			}
		}

		hvSW, vmsSW := build()
		sw := ksm.NewScanner(ksm.NewAlgorithm(hvSW, ksm.JHasher{}), ksm.DefaultCosts())
		rngSW := sim.NewRNG(seed * 7)
		for p := 0; p < 6; p++ {
			for i := 0; i < sw.Alg.MergeablePages(); i++ {
				sw.ScanOne()
			}
			churn(vmsSW, rngSW)
		}
		// Two clean passes to settle after the last churn.
		for p := 0; p < 2; p++ {
			for i := 0; i < sw.Alg.MergeablePages(); i++ {
				sw.ScanOne()
			}
		}

		hvHW, vmsHW := build()
		mc := memctrl.New(dram.New(dram.DefaultConfig()), hvHW.Phys, nil)
		drv := NewDriver(ksm.NewAlgorithm(hvHW, ksm.NewECCHasher()), NewEngine(mc), DefaultDriverConfig())
		rngHW := sim.NewRNG(seed * 7)
		var now uint64
		for p := 0; p < 6; p++ {
			for i := 0; i < drv.Alg.MergeablePages(); i++ {
				_, tt, ok := drv.ScanOne(now)
				if !ok {
					break
				}
				now = tt
			}
			churn(vmsHW, rngHW)
		}
		for p := 0; p < 2; p++ {
			for i := 0; i < drv.Alg.MergeablePages(); i++ {
				_, tt, ok := drv.ScanOne(now)
				if !ok {
					break
				}
				now = tt
			}
		}

		if hvSW.Phys.AllocatedFrames() != hvHW.Phys.AllocatedFrames() {
			t.Fatalf("seed %d: software %d frames vs hardware %d",
				seed, hvSW.Phys.AllocatedFrames(), hvHW.Phys.AllocatedFrames())
		}
		s1, g1 := sw.Alg.SharingStats()
		s2, g2 := drv.Alg.SharingStats()
		if s1 != s2 || g1 != g2 {
			t.Fatalf("seed %d: sharing stats sw %d/%d vs hw %d/%d", seed, s1, g1, s2, g2)
		}
		// Data integrity on the hardware side.
		buf := make([]byte, 1)
		for i, cs := range contents {
			_ = cs
			for g := 0; g < nPg; g++ {
				vmsHW[i].Read(vm.GFN(g), 0, buf)
				vmsSW[i].Read(vm.GFN(g), 0, buf)
			}
		}
	}
}
