package platform

import (
	"math/bits"
	"testing"

	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/pageforge"
	"repro/internal/tailbench"
	"repro/internal/vm"
)

// fastConfig shrinks the machine for quick tests while preserving shape.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.ConvergePasses = 10
	cfg.MeasureIntervals = 8
	cfg.PagesToScan = 200
	return cfg
}

// fastApp shrinks the per-VM image.
func fastApp(name string) tailbench.Profile {
	p := *tailbench.ProfileByName(name)
	p.PagesPerVM = 300
	return p
}

func TestRunBaseline(t *testing.T) {
	t.Parallel()
	res, err := Run(Baseline, fastApp("img_dnn"), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.BurstMean != 0 {
		t.Fatalf("baseline has bursts: %g", res.BurstMean)
	}
	if res.Footprint.Savings() != 0 {
		t.Fatalf("baseline shows savings: %g", res.Footprint.Savings())
	}
	if res.AvgDemandLatency <= 0 {
		t.Fatal("no demand latency measured")
	}
	if res.L3MissRate <= 0 || res.L3MissRate >= 1 {
		t.Fatalf("L3 miss rate %g out of range", res.L3MissRate)
	}
	if res.DedupGBps != 0 {
		t.Fatalf("baseline has dedup bandwidth: %g", res.DedupGBps)
	}
}

// TestBootContentsGeneratedOnRead pins what seeding the boot image and the
// whole-page guest writes, and patching the partial ones, save. Reads
// answer seeded pages from their seeds, so a Baseline world, which writes
// no boot page, materializes none and stores no bytes. In a PageForge world
// and in a KSM world with a balloon storm, a phase change and a spawn, a
// partial write over a seeded page (ChurnVolatile's are the only ones)
// keeps the lines it dirties in a patch block, so a page materializes only
// when a partial write leaves it with more dirty lines since its last
// whole-page write than a block holds: a write observer that tracks each
// page's dirty lines counts those writes, and the materializations must
// equal them. The store must hold no more chunks than those pages need,
// and the patch arena no more than one block per volatile page, rounded up
// to an arena chunk. The counts are host bookkeeping, outside every Result
// and checkpoint; the observer only reads.
func TestBootContentsGeneratedOnRead(t *testing.T) {
	t.Parallel()
	churn := fastConfig()
	churn.Events = []Event{
		{Pass: 1, Kind: EvBalloonStorm, Pages: 40, Passes: 5},
		{Pass: 2, Kind: EvPhaseChange, Frac: 0.3},
		{Pass: 3, Kind: EvVMSpawn},
	}
	for _, tc := range []struct {
		mode Mode
		cfg  Config
	}{{Baseline, fastConfig()}, {PageForge, fastConfig()}, {KSM, churn}} {
		r := NewRuntime(tc.mode, fastApp("img_dnn"), tc.cfg)
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		phys := r.img.HV.Phys
		const blockLines = 16 // a patch block holds 1 KiB
		dirty := make(map[vm.PageID]uint64)
		overflows := 0
		r.img.HV.OnWrite = func(id vm.PageID, off int, data []byte) {
			if off == 0 && len(data) == mem.PageSize {
				delete(dirty, id)
				return
			}
			first, last := off/mem.LineSize, (off+len(data)-1)/mem.LineSize
			before := bits.OnesCount64(dirty[id])
			dirty[id] |= (2<<last - 1) &^ (1<<first - 1)
			if before <= blockLines && bits.OnesCount64(dirty[id]) > blockLines {
				overflows++
			}
		}
		volatile := len(r.img.Volatile)
		for done := false; !done; {
			var err error
			if done, err = r.Step(); err != nil {
				t.Fatal(err)
			}
			volatile = max(volatile, len(r.img.Volatile))
		}
		got, store, patches := phys.MaterializedPages(), phys.StoreBytes(), phys.PatchBytes()
		const chunk, arenaChunk = 64 * mem.PageSize, 64 * 1024
		maxStore := (int(got) + 63) / 64 * chunk
		maxPatches := (volatile*1024 + arenaChunk - 1) / arenaChunk * arenaChunk
		switch {
		case tc.mode == Baseline && (got != 0 || store != 0 || patches != 0):
			t.Errorf("Baseline materialized %d boot pages and stores %d bytes and %d patch bytes, want none", got, store, patches)
		case tc.mode != Baseline && patches == 0:
			t.Errorf("%v patched no partial write", tc.mode)
		case got != uint64(overflows):
			t.Errorf("%v materialized %d pages, want %d (the partial writes that overflow a patch block)", tc.mode, got, overflows)
		case store > maxStore:
			t.Errorf("%v stores %d bytes, want at most %d (%d materialized pages)", tc.mode, store, maxStore, got)
		case patches > maxPatches:
			t.Errorf("%v holds %d patch bytes, want at most %d (%d volatile pages)", tc.mode, patches, maxPatches, volatile)
		}
	}
}

func TestRunKSMShape(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	app := fastApp("img_dnn")
	base, err := Run(Baseline, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(KSM, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Memory savings in a plausible band around the paper's 48%.
	if s := res.Footprint.Savings(); s < 0.30 || s > 0.65 {
		t.Fatalf("KSM savings = %.2f", s)
	}
	// The kthread steals real core time every interval.
	if res.BurstMean <= 0 {
		t.Fatal("no KSM bursts measured")
	}
	share := res.BurstMean / float64(cfg.IntervalCycles())
	if share < 0.05 || share > 1.0 {
		t.Fatalf("KSM busy share of one core = %.2f", share)
	}
	// Pollution: L3 miss rate above baseline.
	if res.L3MissRate <= base.L3MissRate {
		t.Fatalf("KSM L3 miss %.3f not above baseline %.3f", res.L3MissRate, base.L3MissRate)
	}
	// Demand latency degraded.
	if res.AvgDemandLatency <= base.AvgDemandLatency {
		t.Fatal("KSM did not degrade demand latency")
	}
	// Dedup traffic visible in the bandwidth accounting.
	if res.DedupGBps <= 0 {
		t.Fatal("no dedup bandwidth measured")
	}
	// Cycle breakdown populated with comparison-dominated work.
	if res.KSMBreakdown.Compare == 0 || res.KSMBreakdown.Hash == 0 {
		t.Fatalf("KSM breakdown %+v", res.KSMBreakdown)
	}
}

func TestRunPageForgeShape(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	app := fastApp("img_dnn")
	ksmRes, err := Run(KSM, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Run(PageForge, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Identical savings claim (within a couple of pages of noise from
	// volatile churn timing).
	if diff := pf.Footprint.Savings() - ksmRes.Footprint.Savings(); diff < -0.08 || diff > 0.08 {
		t.Fatalf("savings differ: PF %.3f vs KSM %.3f", pf.Footprint.Savings(), ksmRes.Footprint.Savings())
	}
	// The driver's core cost must be tiny compared to the KSM kthread.
	if pf.BurstMean >= ksmRes.BurstMean/5 {
		t.Fatalf("PF bursts %.0f not far below KSM %.0f", pf.BurstMean, ksmRes.BurstMean)
	}
	// Hardware was exercised and timed.
	if pf.PFBatches == 0 || pf.PFBatchMean <= 0 {
		t.Fatal("no PageForge batches recorded")
	}
	if pf.PFLinesFetched == 0 {
		t.Fatal("no PageForge line fetches")
	}
	// PageForge generates dedup DRAM traffic.
	if pf.DedupGBps <= 0 {
		t.Fatal("no PageForge bandwidth")
	}
}

func TestLatencyOrdering(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	app := fastApp("silo")
	base, err := Run(Baseline, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ksmRes, err := Run(KSM, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pfRes, err := Run(PageForge, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb := Latency(app, base, base, cfg, 400, 5)
	lk := Latency(app, base, ksmRes, cfg, 400, 5)
	lp := Latency(app, base, pfRes, cfg, 400, 5)
	// The paper's central result: Baseline < PageForge << KSM.
	if !(lb.Mean < lp.Mean && lp.Mean < lk.Mean) {
		t.Fatalf("mean ordering violated: base=%.0f pf=%.0f ksm=%.0f", lb.Mean, lp.Mean, lk.Mean)
	}
	if !(lb.P95 < lp.P95 && lp.P95 < lk.P95) {
		t.Fatalf("tail ordering violated: base=%.0f pf=%.0f ksm=%.0f", lb.P95, lp.P95, lk.P95)
	}
	// PageForge close to baseline, KSM far.
	pfOverhead := lp.Mean/lb.Mean - 1
	ksmOverhead := lk.Mean/lb.Mean - 1
	if pfOverhead > 0.35 {
		t.Fatalf("PageForge mean overhead %.2f too high", pfOverhead)
	}
	if ksmOverhead < 2*pfOverhead {
		t.Fatalf("KSM overhead %.2f not clearly above PageForge %.2f", ksmOverhead, pfOverhead)
	}
}

func TestModeString(t *testing.T) {
	t.Parallel()
	if Baseline.String() != "Baseline" || KSM.String() != "KSM" || PageForge.String() != "PageForge" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "?" {
		t.Fatal("unknown mode")
	}
}

func TestPageForgeDegradesUnderPathologicalFaults(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.ConvergePasses = 6
	cfg.MeasureIntervals = 4
	app := fastApp("img_dnn")

	// Control: faults enabled at a negligible rate — no degradation.
	cfg.Faults = faults.Config{Seed: 7, TransientPerRead: 0.001}
	ctl, err := Run(PageForge, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Degraded {
		t.Fatalf("benign fault rate tripped degradation (UE rate %g)", ctl.UERate)
	}
	if ctl.ECCCorrected == 0 {
		t.Fatal("transient faults never corrected (injection inert)")
	}
	if ctl.ScrubLines == 0 {
		t.Fatal("patrol scrubber never ran")
	}

	// Pathological: every line read is uncorrectable — the UE-rate policy
	// must demote the hardware engine during convergence, and the run must
	// still complete with software KSM doing the merging.
	cfg.Faults = faults.Config{Seed: 7, DoubleBitPerRead: 1}
	bad, err := Run(PageForge, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bad.Degraded {
		t.Fatalf("always-UE DIMM did not degrade (UE rate %g, aborts %d)",
			bad.UERate, bad.PFFaultAborts)
	}
	if bad.DegradedAtPass < 0 || bad.DegradedAtPass >= cfg.ConvergePasses {
		t.Fatalf("DegradedAtPass = %d", bad.DegradedAtPass)
	}
	if bad.PFFaultAborts == 0 {
		t.Fatal("no hardware fault aborts recorded before degradation")
	}
	if bad.UERate <= ctl.UERate {
		t.Fatalf("UE rate not elevated: %g vs control %g", bad.UERate, ctl.UERate)
	}
	// Software KSM still merges: savings comparable to a clean run's band.
	if s := bad.Footprint.Savings(); s < 0.20 {
		t.Fatalf("degraded run stopped merging: savings %.2f", s)
	}
	if bad.KSMBreakdown.Compare == 0 {
		t.Fatal("software scanner never ran after degradation")
	}
}

// overlapCheck wraps the PageForge engine's line fetcher and records each
// line's latest completion, failing on a fetch issued while an earlier
// fetch of the same line is still in flight.
type overlapCheck struct {
	t     *testing.T
	inner pageforge.LineFetcher
	done  map[uint64]uint64
	n     int
}

func (o *overlapCheck) FetchLine(pfn mem.PFN, li int, now uint64, src dram.Source) memctrl.FetchResult {
	res := o.inner.FetchLine(pfn, li, now, src)
	addr := uint64(pfn.LineAddr(li))
	if d, ok := o.done[addr]; ok && d > now {
		o.t.Fatalf("fetch of frame %d line %d at cycle %d overlaps a fetch completing at %d", pfn, li, now, d)
	}
	o.done[addr] = now + res.Latency
	o.n++
	return res
}

// TestPageForgeFetchesNeverOverlap backs the memory controller's lack of
// an in-flight read table (DESIGN.md §5): across whole PageForge runs, with
// live events and with poisoned-line retries, no line fetch is issued while
// an earlier fetch of the same line is in flight, so there is nothing to
// coalesce. Demand lines live above every frame address, so demand reads
// cannot overlap a fetch either.
func TestPageForgeFetchesNeverOverlap(t *testing.T) {
	t.Parallel()
	events := fastConfig()
	events.Events = liveSchedule()
	faulted := fastConfig()
	faulted.Faults = faults.Config{Seed: 7, TransientPerRead: 0.01}
	for name, cfg := range map[string]Config{"plain": fastConfig(), "events": events, "faulted": faulted} {
		t.Run(name, func(t *testing.T) {
			r := NewRuntime(PageForge, fastApp("img_dnn"), cfg)
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			if top := uint64(r.img.HV.Phys.TotalFrames()) * mem.PageSize; top > warmRegionBase {
				t.Fatalf("frame addresses reach %#x, into the demand regions at %#x", top, warmRegionBase)
			}
			chk := &overlapCheck{t: t, inner: r.driver.HW.MC, done: map[uint64]uint64{}}
			r.driver.HW.MC = chk
			if _, err := r.Drain(); err != nil {
				t.Fatal(err)
			}
			if chk.n == 0 {
				t.Fatal("the engine fetched nothing")
			}
		})
	}
}
