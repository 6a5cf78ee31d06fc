package pageforgesim

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with: go test -bench=. -benchmem). One benchmark exists
// per artifact; its custom metrics are the figure's headline numbers, so a
// benchmark run is a compact reproduction report. The Ablation benchmarks
// cover the design choices Section 4 of the paper discusses. Substrate
// micro-benchmarks at the bottom measure the building blocks themselves.
//
// Benchmarks use a scaled-down suite so the full sweep completes in
// minutes; the cmd/pageforge binary runs the paper-scale versions.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/esx"
	"repro/internal/experiments"
	"repro/internal/hash"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/pageforge"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/rbtree"
	"repro/internal/sim"
	"repro/internal/tailbench"
)

// benchSuite builds the scaled suite used by the per-figure benchmarks.
func benchSuite(apps ...string) *experiments.Suite {
	s := experiments.NewFastSuite()
	s.Cfg.MeasureIntervals = 12
	if len(apps) > 0 {
		var sel []tailbench.Profile
		for _, p := range s.Apps {
			for _, n := range apps {
				if p.Name == n {
					sel = append(sel, p)
				}
			}
		}
		s.Apps = sel
	}
	return s
}

// BenchmarkFigure7 regenerates the memory-savings figure. Paper headline:
// 48% average footprint reduction; zero pages collapse to one frame.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite("img_dnn", "silo", "moses")
		r, err := experiments.Figure7(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgSavings*100, "savings_%")
		b.ReportMetric(r.AvgNonZeroCompressed*100, "dup_distinct_%")
	}
}

// BenchmarkFigure8 regenerates the hash-key accuracy comparison. Paper
// headline: ECC keys add ~3.7% false-positive matches, for 75% less
// key-generation traffic.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite("img_dnn")
		r, err := experiments.Figure8(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgExtraECCMatch*100, "extra_match_%")
		b.ReportMetric(r.FootprintReduction*100, "key_traffic_saved_%")
	}
}

// BenchmarkTable4 regenerates the KSM characterization. Paper headline:
// the kthread consumes 6.8% of machine cycles (33.4% of the busiest
// core), 52% of them comparing pages; L3 miss rate rises ~5 points.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite("silo", "img_dnn")
		r, err := experiments.Table4(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Avg.AvgKSMCyclesPct, "ksm_cycles_%")
		b.ReportMetric(r.Avg.PageCompPct, "compare_%")
		b.ReportMetric(r.Avg.KSML3Miss-r.Avg.BaselineL3Miss, "l3_miss_delta_pts")
	}
}

// BenchmarkFigure9 and BenchmarkFigure10 regenerate the latency figures.
// Paper headline: KSM inflates mean sojourn latency 1.68x and the 95th
// percentile 2.36x; PageForge only 1.10x and 1.11x.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite("silo", "moses")
		r, err := experiments.Latency(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgKSMMean, "ksm_mean_x")
		b.ReportMetric(r.AvgPageForgeMean, "pf_mean_x")
	}
}

// BenchmarkFigure10 reports the tail-latency metrics from the same runs.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite("silo", "moses")
		r, err := experiments.Latency(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgKSMP95, "ksm_p95_x")
		b.ReportMetric(r.AvgPageForgeP95, "pf_p95_x")
	}
}

// BenchmarkFigure11 regenerates the bandwidth figure. Paper headline:
// ~2 GB/s baseline grows to ~10 (KSM) and ~12 (PageForge) GB/s during the
// most memory-intensive dedup phase.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite("img_dnn")
		r, err := experiments.Figure11(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgBaseline, "baseline_GBps")
		b.ReportMetric(r.AvgKSM, "ksm_GBps")
		b.ReportMetric(r.AvgPageForge, "pf_GBps")
	}
}

// BenchmarkTable5 regenerates the PageForge design characteristics. Paper
// headline: ~7,486 cycles to process the Scan Table; 0.029mm² and 0.037W.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite("img_dnn", "silo")
		r, err := experiments.Table5(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ScanTableAvgCycles, "batch_cycles")
		b.ReportMetric(r.Power.Total.AreaMM2*1000, "area_milli_mm2")
		b.ReportMetric(r.Power.Total.PowerW*1000, "power_mW")
	}
}

// benchmarkSuiteMatrix measures the wall-clock of the full fast-suite
// (mode × app) matrix at the given worker-pool width. Comparing the
// Sequential and Parallel variants gives the runner's speedup; on a
// multicore host Parallel4 should be ≥2x faster (runs are hermetic and
// CPU-bound). Results are bit-identical at any width (see the
// TestParallelMatchesSequential determinism test).
func benchmarkSuiteMatrix(b *testing.B, parallel int) {
	for i := 0; i < b.N; i++ {
		s := benchSuite("img_dnn", "silo")
		s.Parallelism = parallel
		if err := s.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteSequential runs the matrix one simulation at a time.
func BenchmarkSuiteSequential(b *testing.B) { benchmarkSuiteMatrix(b, 1) }

// BenchmarkSuiteParallel4 runs the matrix through a 4-worker pool.
func BenchmarkSuiteParallel4(b *testing.B) { benchmarkSuiteMatrix(b, 4) }

// --- Ablations (Section 4's design discussion) ------------------------------

// buildAblationWorld creates a converged deployment and a fresh PageForge
// driver over it with the given config tweak.
func ablationDriver(b *testing.B, tweak func(*pageforge.DriverConfig), fetchWrap func(pageforge.LineFetcher) pageforge.LineFetcher) (*pageforge.Driver, *tailbench.Image) {
	b.Helper()
	app := *tailbench.ProfileByName("img_dnn")
	app.PagesPerVM = 300
	img, err := tailbench.BuildImage(app, 10, 10*app.PagesPerVM*2, 3)
	if err != nil {
		b.Fatal(err)
	}
	mc := memctrl.New(dram.New(dram.DefaultConfig()), img.HV.Phys, nil)
	var fetcher pageforge.LineFetcher = mc
	if fetchWrap != nil {
		fetcher = fetchWrap(mc)
	}
	cfg := pageforge.DefaultDriverConfig()
	if tweak != nil {
		tweak(&cfg)
	}
	drv := pageforge.NewDriver(ksm.NewAlgorithm(img.HV, ksm.NewECCHasher()), pageforge.NewEngine(fetcher), cfg)
	return drv, img
}

// BenchmarkAblationScanTableSize compares a 31-entry Scan Table against
// smaller tables: fewer entries mean more refill round-trips per search
// (more OS polls per scanned page).
func BenchmarkAblationScanTableSize(b *testing.B) {
	for _, entries := range []int{31, 15, 7, 3} {
		b.Run(sizeName(entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drv, _ := ablationDriver(b, func(c *pageforge.DriverConfig) { c.BatchEntries = entries }, nil)
				drv.RunToSteadyState(12)
				pages := drv.Alg.Stats.PagesScanned
				b.ReportMetric(float64(drv.Batches)/float64(pages), "batches/page")
				b.ReportMetric(float64(drv.Polls)/float64(pages), "polls/page")
			}
		})
	}
}

func sizeName(n int) string {
	return string(rune('0'+n/10)) + string(rune('0'+n%10)) + "entries"
}

// BenchmarkAblationPollInterval varies the OS checking period (Table 5:
// 12,000 cycles): longer periods cost scan throughput, shorter ones burn
// core cycles on polling.
func BenchmarkAblationPollInterval(b *testing.B) {
	for _, poll := range []uint64{6000, 12000, 24000} {
		b.Run(pollName(poll), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				drv, _ := ablationDriver(b, func(c *pageforge.DriverConfig) { c.PollInterval = poll }, nil)
				var now uint64
				scanned := 0
				for scanned < 3000 {
					_, t, ok := drv.ScanOne(now)
					if !ok {
						break
					}
					now = t
					scanned++
				}
				b.ReportMetric(float64(now)/float64(scanned), "cycles/page")
				b.ReportMetric(float64(drv.CoreCycles)/float64(now)*100, "core_busy_%")
			}
		})
	}
}

func pollName(p uint64) string {
	switch p {
	case 6000:
		return "poll6k"
	case 12000:
		return "poll12k"
	default:
		return "poll24k"
	}
}

// remoteFetcher adds an interconnect round trip to every line fetch,
// modeling a PageForge module whose request targets memory homed on the
// other controller (§4.1's placement discussion: pages spread across
// controllers, so remote fetches are the common case with per-MC modules).
type remoteFetcher struct {
	inner   pageforge.LineFetcher
	penalty uint64
}

func (r remoteFetcher) FetchLine(pfn mem.PFN, li int, now uint64, src dram.Source) memctrl.FetchResult {
	res := r.inner.FetchLine(pfn, li, now+r.penalty/2, src)
	res.Latency += r.penalty
	return res
}

// BenchmarkAblationRemoteMemory quantifies §4.1: scan throughput when the
// module's fetches cross the on-chip interconnect to the other memory
// controller versus staying local.
func BenchmarkAblationRemoteMemory(b *testing.B) {
	for _, penalty := range []uint64{0, 40, 80} {
		b.Run(penaltyName(penalty), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var wrap func(pageforge.LineFetcher) pageforge.LineFetcher
				if penalty > 0 {
					p := penalty
					wrap = func(f pageforge.LineFetcher) pageforge.LineFetcher {
						return remoteFetcher{inner: f, penalty: p}
					}
				}
				drv, _ := ablationDriver(b, nil, wrap)
				drv.RunToSteadyState(8)
				b.ReportMetric(drv.HW.BatchCycles.Mean(), "batch_cycles")
			}
		})
	}
}

func penaltyName(p uint64) string {
	switch p {
	case 0:
		return "local"
	case 40:
		return "remote40"
	default:
		return "remote80"
	}
}

// BenchmarkAblationECCOffsets measures update_ECC_offset sensitivity: how
// often keys from different sampling offsets miss a partial page write.
func BenchmarkAblationECCOffsets(b *testing.B) {
	configs := map[string]ecc.KeyOffsets{
		"line0":    {0, 0, 0, 0},
		"default":  ecc.DefaultKeyOffsets,
		"lastline": {15, 15, 15, 15},
	}
	for name, offs := range configs {
		offs := offs
		b.Run(name, func(b *testing.B) {
			rng := sim.NewRNG(9)
			page := make([]byte, ecc.PageSize)
			missed := 0
			const writes = 2000
			for i := 0; i < b.N; i++ {
				missed = 0
				for w := 0; w < writes; w++ {
					rng.FillBytes(page)
					before := ecc.PageKey(page, offs)
					// A 256B partial write biased toward the page head.
					off := rng.Intn(1024 - 256)
					if rng.Bool(0.3) {
						off = 1024 + rng.Intn(ecc.PageSize-1024-256)
					}
					part := make([]byte, 256)
					rng.FillBytes(part)
					copy(page[off:], part)
					if ecc.PageKey(page, offs) == before {
						missed++
					}
				}
			}
			b.ReportMetric(float64(missed)/writes*100, "missed_writes_%")
		})
	}
}

// BenchmarkAblationInOrderCore contrasts §4.3's alternative design: an
// A9-class in-order core running the software algorithm versus the
// PageForge module, in area and power.
func BenchmarkAblationInOrderCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pf := power.PageForgeModule(power.Tech22HP).Total
		a9 := power.InOrderCore(power.Tech22LOP)
		b.ReportMetric(a9.PowerW/pf.PowerW, "power_ratio")
		b.ReportMetric(a9.AreaMM2/pf.AreaMM2, "area_ratio")
	}
}

// --- Substrate micro-benchmarks ---------------------------------------------

// BenchmarkECCEncodeLine measures the SECDED encoder over 64B lines.
func BenchmarkECCEncodeLine(b *testing.B) {
	line := make([]byte, ecc.LineSize)
	for i := range line {
		line[i] = byte(i)
	}
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		_ = ecc.EncodeLine(line)
	}
}

// BenchmarkJHash2Page measures KSM's per-page hash (jhash2 over 1KB); the
// hash runs on the page bytes in place, so it reports zero allocations.
func BenchmarkJHash2Page(b *testing.B) {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i * 31)
	}
	b.SetBytes(hash.KSMDigestBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = hash.PageHash(page)
	}
}

// BenchmarkECCPageKey measures PageForge's key generation path in software.
func BenchmarkECCPageKey(b *testing.B) {
	page := make([]byte, ecc.PageSize)
	for i := range page {
		page[i] = byte(i * 17)
	}
	b.SetBytes(int64(ecc.Sections * ecc.LineSize))
	for i := 0; i < b.N; i++ {
		_ = ecc.PageKey(page, ecc.DefaultKeyOffsets)
	}
}

// BenchmarkPageCompare measures the content comparison that dominates KSM's
// cycles (internal/mem's BenchmarkComparePage contrasts it with the
// byte-wise reference).
func BenchmarkPageCompare(b *testing.B) {
	phys := mem.New(16 * mem.PageSize)
	a, _ := phys.Alloc()
	c, _ := phys.Alloc()
	buf := make([]byte, mem.PageSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	phys.WriteAt(a, 0, buf)
	buf[mem.PageSize-1] ^= 1 // diverge at the last byte: worst case
	phys.WriteAt(c, 0, buf)
	b.SetBytes(mem.PageSize)
	for i := 0; i < b.N; i++ {
		_, _ = phys.ComparePage(a, c)
	}
}

// BenchmarkRBTreeInsert measures content-indexed tree insertion.
func BenchmarkRBTreeInsert(b *testing.B) {
	phys := mem.New(4096 * mem.PageSize)
	rng := sim.NewRNG(5)
	var pfns []mem.PFN
	buf := make([]byte, mem.PageSize)
	for i := 0; i < 2048; i++ {
		pfn, err := phys.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		rng.FillBytes(buf)
		phys.WriteAt(pfn, 0, buf)
		pfns = append(pfns, pfn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := rbtree.New(func(x, y mem.PFN) (int, int) { return phys.ComparePage(x, y) })
		for _, pfn := range pfns {
			t.InsertOrGet(pfn, nil)
		}
	}
}

// BenchmarkEngineBatch measures one hardware Scan Table batch end to end
// (full-page duplicate comparison through the memory-controller model).
func BenchmarkEngineBatch(b *testing.B) {
	phys := mem.New(16 * mem.PageSize)
	mc := memctrl.New(dram.New(dram.DefaultConfig()), phys, nil)
	eng := pageforge.NewEngine(mc)
	a, _ := phys.Alloc()
	c, _ := phys.Alloc()
	phys.CopyPage(a, c)
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.InsertPPN(0, c, pageforge.InvalidIndex, pageforge.InvalidIndex)
		eng.InsertPFE(a, true, 0)
		eng.Trigger(now)
		now = eng.DoneAt() + 1
	}
}

// BenchmarkKSMScanOne measures one pass's worth of sequential ScanOne
// calls over a 10-VM deployment (the functional cost of the simulator
// itself).
func BenchmarkKSMScanOne(b *testing.B) {
	s := ksmBenchScanner(b, 0)
	pages := s.Alg.MergeablePages()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < pages; j++ {
			s.ScanOne()
		}
	}
}

// BenchmarkKSMScanPassSharded measures full ScanPass calls over the same
// deployment with 16 content shards and 2 workers, reporting allocations:
// a steady-state pass allocates nothing. The ledger-on case attaches the
// merge-lifecycle provenance ledger, so the pair reports its overhead;
// nothing gates on the ratio.
func BenchmarkKSMScanPassSharded(b *testing.B) {
	for _, withLedger := range []bool{false, true} {
		name := "ledger-off"
		if withLedger {
			name = "ledger-on"
		}
		b.Run(name, func(b *testing.B) {
			s := ksmBenchScanner(b, 4)
			if withLedger {
				s.Ledger = obs.NewLedger(0)
			}
			s.ScanPass(2)
			s.ScanPass(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ScanPass(2)
			}
		})
	}
}

// ksmBenchScanner builds a software KSM scanner with 2^shardBits content
// shards over ten 300-page silo VMs.
func ksmBenchScanner(b *testing.B, shardBits int) *ksm.Scanner {
	app := *tailbench.ProfileByName("silo")
	app.PagesPerVM = 300
	img, err := tailbench.BuildImage(app, 10, 10*app.PagesPerVM*2, 1)
	if err != nil {
		b.Fatal(err)
	}
	return ksm.NewScanner(ksm.NewAlgorithmSharded(img.HV, ksm.JHasher{}, shardBits), ksm.DefaultCosts())
}

// BenchmarkQueueingSim measures the open-loop latency simulator.
func BenchmarkQueueingSim(b *testing.B) {
	p := *tailbench.ProfileByName("silo")
	sched := &tailbench.BurstSchedule{
		IntervalCycles: 10_000_000, MeanCycles: 6e6, StdCycles: 1e6,
		ZipfS: 1.2, Cores: 10, Share: 0.5,
	}
	for i := 0; i < b.N; i++ {
		_ = tailbench.SimulateQueueing(p, 10, 1.05, sched, sim.CyclesPerSecond, uint64(i))
	}
}

// BenchmarkPlatformRun measures one full (mode, app) simulation.
func BenchmarkPlatformRun(b *testing.B) {
	cfg := platform.DefaultConfig()
	cfg.ConvergePasses = 8
	cfg.MeasureIntervals = 8
	cfg.PagesToScan = 200
	app := *tailbench.ProfileByName("img_dnn")
	app.PagesPerVM = 300
	for i := 0; i < b.N; i++ {
		if _, err := platform.Run(platform.KSM, app, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgorithmESXvsKSM contrasts the two merging algorithms the
// hardware supports (§4.2): KSM's content-indexed trees versus ESX-style
// hash-indexed hints, on identical deployments. The metrics show the
// trade: ESX does ~50x fewer comparisons but hashes whole pages.
func BenchmarkAlgorithmESXvsKSM(b *testing.B) {
	app := *tailbench.ProfileByName("masstree")
	app.PagesPerVM = 400
	b.Run("ksm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			img, err := tailbench.BuildImage(app, 10, 10*app.PagesPerVM*2, 21)
			if err != nil {
				b.Fatal(err)
			}
			s := ksm.NewScanner(ksm.NewAlgorithm(img.HV, ksm.JHasher{}), ksm.DefaultCosts())
			s.RunToSteadyState(12)
			f := img.MeasureFootprint()
			b.ReportMetric(f.Savings()*100, "savings_%")
			cmps := s.Alg.Stable.Comparisons() + s.Alg.Unstable.Comparisons()
			b.ReportMetric(float64(cmps)/float64(f.TotalGuestPages), "compares/page")
		}
	})
	b.Run("esx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			img, err := tailbench.BuildImage(app, 10, 10*app.PagesPerVM*2, 21)
			if err != nil {
				b.Fatal(err)
			}
			t := esx.New(img.HV, esx.SoftwareComparer{Phys: img.HV.Phys})
			t.RunToSteadyState(10)
			f := img.MeasureFootprint()
			b.ReportMetric(f.Savings()*100, "savings_%")
			b.ReportMetric(float64(t.Stats.Comparisons)/float64(f.TotalGuestPages), "compares/page")
		}
	})
}

// BenchmarkAblationTwoModules quantifies §4.1's argument against one
// PageForge module per memory controller: two modules scanning disjoint
// halves of the VMs double the scan rate, but cross-partition duplicates
// stay unmerged (the coordination problem), costing memory savings.
func BenchmarkAblationTwoModules(b *testing.B) {
	app := *tailbench.ProfileByName("img_dnn")
	app.PagesPerVM = 300

	b.Run("one-module", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			img, err := tailbench.BuildImage(app, 10, 10*app.PagesPerVM*2, 17)
			if err != nil {
				b.Fatal(err)
			}
			mc := memctrl.New(dram.New(dram.DefaultConfig()), img.HV.Phys, nil)
			drv := pageforge.NewDriver(ksm.NewAlgorithm(img.HV, ksm.NewECCHasher()),
				pageforge.NewEngine(mc), pageforge.DefaultDriverConfig())
			drv.RunToSteadyState(10)
			b.ReportMetric(img.MeasureFootprint().Savings()*100, "savings_%")
		}
	})
	b.Run("two-modules-partitioned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			img, err := tailbench.BuildImage(app, 10, 10*app.PagesPerVM*2, 17)
			if err != nil {
				b.Fatal(err)
			}
			// Each module scans half the VMs: restrict each algorithm's
			// madvise view by un-advising the other half, scan, re-advise.
			dramModel := dram.New(dram.DefaultConfig())
			half := img.HV.NumVMs() / 2
			run := func(lo, hi int) {
				for v := 0; v < img.HV.NumVMs(); v++ {
					img.HV.VM(v).Madvise(0, app.PagesPerVM, v >= lo && v < hi)
				}
				mc := memctrl.New(dramModel, img.HV.Phys, nil)
				drv := pageforge.NewDriver(ksm.NewAlgorithm(img.HV, ksm.NewECCHasher()),
					pageforge.NewEngine(mc), pageforge.DefaultDriverConfig())
				drv.RunToSteadyState(10)
			}
			run(0, half)
			run(half, img.HV.NumVMs())
			for v := 0; v < img.HV.NumVMs(); v++ {
				img.HV.VM(v).Madvise(0, app.PagesPerVM, true)
			}
			b.ReportMetric(img.MeasureFootprint().Savings()*100, "savings_%")
		}
	})
}

// BenchmarkSatoriExtension measures short-lived-sharing capture (§7.2's
// Satori discussion): at aggressive scan rates, KSM's core cost explodes
// while PageForge's stays marginal.
func BenchmarkSatoriExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewFastSuite()
		r, err := experiments.Satori(s)
		if err != nil {
			b.Fatal(err)
		}
		var ksmHi, pfHi experiments.SatoriRow
		for _, row := range r.Rows {
			if row.PagesToScan == 6400 {
				if row.Engine == "ksm" {
					ksmHi = row
				} else {
					pfHi = row
				}
			}
		}
		b.ReportMetric(ksmHi.CoreBusyPct, "ksm_core_%")
		b.ReportMetric(pfHi.CoreBusyPct, "pf_core_%")
		b.ReportMetric(pfHi.CapturedPct, "pf_captured_%")
	}
}

// BenchmarkBuildImage measures building the paper-size boot image (img_dnn,
// 10 VMs of 1,600 pages in the platform's 10*PagesPerVM*2+1024 frames), the
// bulk of a Runtime's start. BuildImage runs on GOMAXPROCS workers, so the
// "workers=1" case pins GOMAXPROCS to 1: it isolates the one-core share of
// the build (each duplicated content generated once), and the GOMAXPROCS
// case adds the parallel arena backing and fill on top.
func BenchmarkBuildImage(b *testing.B) {
	app := *tailbench.ProfileByName("img_dnn")
	frames := 10*app.PagesPerVM*2 + 1024
	run := func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(10*app.PagesPerVM) * mem.PageSize)
		for i := 0; i < b.N; i++ {
			if _, err := tailbench.BuildImage(app, 10, frames, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("workers=1", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		run(b)
	})
	b.Run(fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), run)
}
