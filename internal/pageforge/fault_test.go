package pageforge

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/faults"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/vm"
)

// End-to-end fault injection: the ECC engine PageForge repurposes for hash
// keys still has its day job. Single-bit DRAM errors under the scan stream
// are corrected transparently; uncorrectable errors poison the fetch,
// bounded retries heal the transient ones, and anything else aborts the
// batch with the Fault bit — never a wrong verdict, never a dirty minikey.

func TestScanUnderSingleBitFaults(t *testing.T) {
	phys := mem.New(16 * mem.PageSize)
	mc := memctrl.New(dram.New(dram.DefaultConfig()), phys, nil)
	rng := sim.NewRNG(77)
	// Every 5th fetched line suffers a random single-bit flip on the wire.
	count := 0
	mc.Faults = memctrl.FaultFunc(func(addr uint64, line []byte) {
		count++
		if count%5 == 0 {
			line[rng.Intn(len(line))] ^= 1 << uint(rng.Intn(8))
		}
	})
	eng := NewEngine(mc)

	a, _ := phys.Alloc()
	b, _ := phys.Alloc()
	fillRandom(phys, a, rng)
	phys.CopyPage(b, a)

	eng.InsertPPN(0, b, InvalidIndex, InvalidIndex)
	eng.InsertPFE(a, true, 0)
	eng.Trigger(0)
	info := eng.GetPFEInfo(eng.DoneAt())
	if !info.Duplicate {
		t.Fatal("single-bit faults broke the duplicate detection (SECDED should correct)")
	}
	if info.Fault {
		t.Fatal("correctable faults raised the Fault bit")
	}
	if mc.Stats.ECCCorrected == 0 {
		t.Fatal("no corrections recorded despite injected faults")
	}
	if mc.Stats.ECCUncorrectable != 0 {
		t.Fatalf("%d uncorrectable errors from single-bit faults", mc.Stats.ECCUncorrectable)
	}
	// The hash key is computed from clean (corrected) data.
	if info.Hash != ecc.PageKey(phys.Page(a), eng.Offsets()) {
		t.Fatal("hash key corrupted by correctable faults")
	}
}

func TestScanAbortsOnPersistentDoubleBitFaults(t *testing.T) {
	phys := mem.New(16 * mem.PageSize)
	mc := memctrl.New(dram.New(dram.DefaultConfig()), phys, nil)
	// Every line suffers a double-bit flip within one 64-bit word on every
	// read: uncorrectable and unhealable — the batch must abort.
	mc.Faults = memctrl.FaultFunc(func(addr uint64, line []byte) { line[0] ^= 0x03 })
	eng := NewEngine(mc)

	a, _ := phys.Alloc()
	b, _ := phys.Alloc()
	eng.InsertPPN(0, b, InvalidIndex, InvalidIndex)
	eng.InsertPFE(a, true, 0)
	eng.Trigger(0)
	info := eng.GetPFEInfo(eng.DoneAt())
	if mc.Stats.ECCUncorrectable == 0 {
		t.Fatal("double-bit errors not detected")
	}
	if mc.Stats.ECCCorrected != 0 {
		t.Fatal("double-bit errors miscounted as corrected")
	}
	if !info.Scanned || !info.Fault {
		t.Fatalf("batch did not abort with Fault: %v", info)
	}
	if info.Duplicate {
		t.Fatal("poisoned comparison produced a duplicate verdict")
	}
	if info.HashReady || info.Hash != 0 {
		t.Fatalf("poisoned candidate produced a hash key: %v", info)
	}
	if eng.FaultAborts == 0 {
		t.Fatal("fault abort not counted")
	}
	if eng.LineRetries == 0 || eng.RetriesHealed != 0 {
		t.Fatalf("retries=%d healed=%d; want retries issued, none healed",
			eng.LineRetries, eng.RetriesHealed)
	}
}

func TestTransientPoisonHealsByRetry(t *testing.T) {
	phys := mem.New(16 * mem.PageSize)
	mc := memctrl.New(dram.New(dram.DefaultConfig()), phys, nil)
	// Every line's first read is uncorrectable; re-reads come back clean —
	// the transient-upset shape the bounded retry exists for.
	seen := map[uint64]bool{}
	mc.Faults = memctrl.FaultFunc(func(addr uint64, line []byte) {
		if !seen[addr] {
			seen[addr] = true
			line[0] ^= 0x03
		}
	})
	eng := NewEngine(mc)

	rng := sim.NewRNG(5)
	a, _ := phys.Alloc()
	b, _ := phys.Alloc()
	fillRandom(phys, a, rng)
	phys.CopyPage(b, a)

	eng.InsertPPN(0, b, InvalidIndex, InvalidIndex)
	eng.InsertPFE(a, true, 0)
	eng.Trigger(0)
	info := eng.GetPFEInfo(eng.DoneAt())
	if info.Fault {
		t.Fatal("transient poison was not healed by retry")
	}
	if !info.Duplicate {
		t.Fatal("healed comparison lost the duplicate")
	}
	if eng.LineRetries == 0 || eng.LineRetries != eng.RetriesHealed {
		t.Fatalf("retries=%d healed=%d; want all retries healed",
			eng.LineRetries, eng.RetriesHealed)
	}
	// The key assembled from healed lines matches the clean reference:
	// only post-correction codes reached the assembler.
	if !info.HashReady || info.Hash != ecc.PageKey(phys.Page(a), eng.Offsets()) {
		t.Fatalf("hash after healed retries: %v", info)
	}
}

// TestUELinesNeverFeedMinikeys is the regression test for the audit
// satellite: a line that decodes uncorrectably must never contribute a
// minikey to the key assembler — the candidate ends Fault-flagged with no
// hash instead.
func TestUELinesNeverFeedMinikeys(t *testing.T) {
	phys := mem.New(16 * mem.PageSize)
	mc := memctrl.New(dram.New(dram.DefaultConfig()), phys, nil)
	eng := NewEngine(mc)

	a, _ := phys.Alloc()
	rng := sim.NewRNG(9)
	fillRandom(phys, a, rng)

	// Persistently poison exactly the key-offset lines of the candidate.
	keyLines := map[uint64]bool{}
	for s := 0; s < ecc.Sections; s++ {
		keyLines[uint64(a.LineAddr(eng.Offsets().LineIndex(s)))] = true
	}
	mc.Faults = memctrl.FaultFunc(func(addr uint64, line []byte) {
		if keyLines[addr] {
			line[0] ^= 0x03
		}
	})

	// Empty table, Last Refill set: the engine goes straight to the forced
	// hash finish — the only line traffic is the key-offset fetches.
	eng.InsertPFE(a, true, InvalidIndex)
	eng.Trigger(0)
	info := eng.GetPFEInfo(eng.DoneAt())
	if !info.Fault {
		t.Fatal("poisoned key lines did not raise Fault")
	}
	if info.HashReady {
		t.Fatal("hash reported ready over poisoned key lines")
	}
	if info.Hash != 0 {
		t.Fatalf("poisoned key lines leaked minikeys into hash %#x", info.Hash)
	}
	if eng.KeysGenerated != 0 {
		t.Fatal("key counted as generated despite poisoned lines")
	}
}

// buildFaultWorld assembles VMs whose pages mix exact duplicates,
// near-duplicates (one byte differs deep in the page), and unique
// content — the layouts where a corrupted compare or hash could plausibly
// produce a false merge.
func buildFaultWorld(seed uint64) (*vm.Hypervisor, []*vm.VM) {
	const (
		vms        = 3
		pagesPerVM = 8
	)
	hv := vm.NewHypervisor(256 * mem.PageSize)
	rng := sim.NewRNG(seed)
	base := make([][]byte, pagesPerVM)
	for i := range base {
		base[i] = make([]byte, mem.PageSize)
		rng.FillBytes(base[i])
	}
	var out []*vm.VM
	for v := 0; v < vms; v++ {
		m := hv.NewVM(pagesPerVM * mem.PageSize)
		m.Madvise(0, pagesPerVM, true)
		for g := 0; g < pagesPerVM; g++ {
			page := make([]byte, mem.PageSize)
			copy(page, base[g])
			switch {
			case g < 4:
				// Exact duplicate across all VMs.
			case g < 6:
				// Near-duplicate: a single byte deep in the page differs
				// per VM — the hardest case for a corrupted comparator.
				page[3000+g] = byte(0xA0 + v)
			default:
				// Unique content.
				rng.FillBytes(page)
			}
			if _, err := m.Write(vm.GFN(g), 0, page); err != nil {
				panic(err)
			}
		}
		out = append(out, m)
	}
	return hv, out
}

// TestNoFalseMergeAcrossFaultRates is the tentpole invariant: at any
// injected fault rate — zero, realistic, pathological, always-UE — no
// guest page's contents may change as a result of scanning and merging.
// A false merge would silently alias two different pages; snapshotting
// every page before the run and re-reading after catches exactly that.
func TestNoFalseMergeAcrossFaultRates(t *testing.T) {
	cases := []struct {
		name string
		cfg  faults.Config
	}{
		{"clean", faults.Config{}},
		{"transient", faults.Config{Seed: 21, TransientPerRead: 0.05}},
		{"mixed", faults.Config{Seed: 22, TransientPerRead: 0.1, DoubleBitPerRead: 0.01}},
		{"hard", faults.Config{Seed: 23, DoubleBitPerRead: 0.05, StuckUEWords: 8, Frames: 256}},
		{"always-ue", faults.Config{Seed: 25, DoubleBitPerRead: 1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			hv, vms := buildFaultWorld(101)
			mc := memctrl.New(dram.New(dram.DefaultConfig()), hv.Phys, nil)
			if tc.cfg.Enabled() {
				mc.Faults = faults.NewModel(tc.cfg)
			}
			drv := NewDriver(ksm.NewAlgorithm(hv, ksm.NewECCHasher()), NewEngine(mc), DefaultDriverConfig())

			// Snapshot every guest page's contents before scanning.
			want := map[string][]byte{}
			for vi, m := range vms {
				for g := 0; g < m.Pages(); g++ {
					pg, err := m.Page(vm.GFN(g))
					if err != nil {
						t.Fatal(err)
					}
					want[fmt.Sprintf("%d/%d", vi, g)] = append([]byte(nil), pg...)
				}
			}

			drv.RunToSteadyState(8)

			for vi, m := range vms {
				for g := 0; g < m.Pages(); g++ {
					pg, err := m.Page(vm.GFN(g))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(pg, want[fmt.Sprintf("%d/%d", vi, g)]) {
						t.Fatalf("FALSE MERGE: VM %d page %d contents changed", vi, g)
					}
				}
			}
			if tc.name == "clean" {
				// The clean run must actually merge: 3 VMs sharing 4 exact
				// duplicates each collapse 12 frames to 4.
				if frames, mappers := hv.SharedFrames(); frames == 0 || mappers == 0 {
					t.Fatal("clean run merged nothing; the invariant test is vacuous")
				}
			}
			if tc.name == "always-ue" {
				if drv.SWFallbacks == 0 && drv.QuarantineSkips == 0 {
					t.Fatal("always-UE run never took the fallback path")
				}
			}
		})
	}
}

func TestDriverConvergesUnderFaultyDIMM(t *testing.T) {
	// A realistically flaky DIMM (rare single-bit errors) must not change
	// the deduplication outcome at all.
	layout := [][]byte{{9, 8, 7}, {9, 8, 6}}
	r := newDriverRig(t, 128, layout...)
	rng := sim.NewRNG(3)
	n := 0
	// Attach fault injection to the rig's controller.
	mcOf(r.drv).Faults = memctrl.FaultFunc(func(addr uint64, line []byte) {
		n++
		if n%97 == 0 {
			line[rng.Intn(len(line))] ^= 1 << uint(rng.Intn(8))
		}
	})
	r.drv.RunToSteadyState(10)
	// Contents 9 and 8 each appear twice; 7 and 6 once: 4 frames.
	if got := r.hv.Phys.AllocatedFrames(); got != 4 {
		t.Fatalf("frames = %d, want 4", got)
	}
	if mcOf(r.drv).Stats.ECCCorrected == 0 {
		t.Fatal("faults never triggered (injection misconfigured)")
	}
}

// mcOf digs the memory controller out of a driver's engine (test helper).
func mcOf(d *Driver) *memctrl.Controller {
	return d.HW.MC.(*memctrl.Controller)
}

// fillRandom writes the frame full of bytes from rng.
func fillRandom(phys *mem.Phys, pfn mem.PFN, rng *sim.RNG) {
	pg := make([]byte, mem.PageSize)
	rng.FillBytes(pg)
	phys.WriteAt(pfn, 0, pg)
}
