package platform

import (
	"reflect"
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

// TestBootContentsGeneratedOnRead pins what seeding the boot image and
// the whole-page guest writes saves: reads answer seeded pages from their
// seeds, so a Baseline world, which writes no boot page, materializes none
// and stores no bytes, and a PageForge world, which reads every boot page,
// materializes only the seeded pages that take a partial write: at most
// one per partial write issued (ChurnVolatile's are the only ones; a
// volatile page whose whole-page rewrite seeded it again materializes
// again at its next partial write), and its store holds no more than the
// volatile pages, rounded up to whole chunks, plus one chunk. The counts
// are host bookkeeping, outside every Result and checkpoint; the write
// observer that counts the partial writes only reads.
func TestBootContentsGeneratedOnRead(t *testing.T) {
	t.Parallel()
	for _, mode := range []Mode{Baseline, PageForge} {
		r := NewRuntime(mode, fastApp("img_dnn"), fastConfig())
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		phys := r.img.HV.Phys
		volatile := len(r.img.Volatile)
		partial := 0
		r.img.HV.OnWrite = func(_ vm.PageID, off int, data []byte) {
			if off != 0 || len(data) != mem.PageSize {
				partial++
			}
		}
		for done := false; !done; {
			var err error
			if done, err = r.Step(); err != nil {
				t.Fatal(err)
			}
		}
		got, store := phys.MaterializedPages(), phys.StoreBytes()
		const chunk = 64 * mem.PageSize
		maxStore := ((volatile*mem.PageSize+chunk-1)/chunk + 1) * chunk
		switch {
		case mode == Baseline && (got != 0 || store != 0):
			t.Errorf("Baseline materialized %d boot pages and stores %d bytes, want none", got, store)
		case mode == PageForge && (got == 0 || got > uint64(partial)):
			t.Errorf("PageForge materialized %d pages, want 1..%d (the partial writes)", got, partial)
		case mode == PageForge && store > maxStore:
			t.Errorf("PageForge stores %d bytes, want at most %d (%d volatile pages)", store, maxStore, volatile)
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

func TestFaultConfigZeroIsIdentical(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.ConvergePasses = 4
	cfg.MeasureIntervals = 4
	app := fastApp("silo")
	a, err := Run(PageForge, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(PageForge, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical configs diverged:\n%+v\n%+v", a, b)
	}
	if a.ScrubLines != 0 || a.ECCUncorrectable != 0 || a.Degraded {
		t.Fatalf("zero fault config produced RAS activity: %+v", a)
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
	events.Events = streamSchedule()
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
