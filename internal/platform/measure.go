package platform

import (
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The measurement phase models traffic at the shared-L3 boundary. The
// sampled application stream represents the accesses that *reach* the L3
// (private-cache misses); each core owns a synthetic warm region — bigger
// than a private L2, resident in the L3 at baseline — plus a cold stream of
// never-reused lines. The application's baseline L3 local miss rate is then
// the profile's cold fraction by construction (Table 4's Baseline column is
// an application property), while the *increase* under KSM — the paper's
// measured pollution — emerges from the kthread's streaming sweep evicting
// warm lines between reuses.
//
// The KSM cache sweep is subsampled by ksmStreamSubsample to match the
// sampled application rate (both streams are ~3 orders of magnitude
// thinner than reality; pollution is a ratio of the two, so they must be
// thinned together). Dedup DRAM *bandwidth* (Figure 11) is instead computed
// from unsampled byte volumes during the mass-merging phase.
const (
	warmLinesPerCore   = 1024 // 64KB per core: L2-scale reuse set at the (scaled) L3
	ksmStreamSubsample = 112
	l3HitLatency       = 20
	warmupIntervals    = 8 // intervals run before statistics reset
)

// measurement is the measurement phase's own state; the world it runs in is
// the Runtime's.
type measurement struct {
	rng   *sim.RNG
	burst sim.Online
	// demandLat is the full latency distribution of sampled application
	// accesses (registered as platform/demand_latency_cycles): the latency
	// experiments report its mean and tail quantiles, not just the mean.
	demandLat *obs.Histogram
	ksmNext   uint64 // monotonically fresh KSM-stream counter

	// Per-phase stepping state, initialized by beginMeasure and advanced by
	// stepMeasure: the interval length and clock base, the PageForge
	// engine's running timestamp, and the pages scanned since the last
	// churn. Hoisted to fields (rather than loop locals) so the runtime can
	// execute the measurement one interval per tick.
	interval        uint64
	base            uint64
	pfNow           uint64
	pagesSinceChurn int
}

// pumpFetcher wraps the memory controller's fetch service: before each
// PageForge line fetch, pending application accesses with earlier
// timestamps are issued, keeping the DRAM timeline monotonic and the
// contention between the engine and the cores unbiased.
type pumpFetcher struct {
	mc   *memctrl.Controller
	emit func(deadline uint64)
}

// FetchLine implements pageforge.LineFetcher.
func (p *pumpFetcher) FetchLine(pfn mem.PFN, lineIdx int, now uint64, src dram.Source) memctrl.FetchResult {
	if p.emit != nil {
		p.emit(now)
	}
	return p.mc.FetchLine(pfn, lineIdx, now, src)
}

// Synthetic address regions, all above any real frame address.
const (
	warmRegionBase = uint64(1) << 40
	coldRegionBase = uint64(1) << 41
	ksmRegionBase  = uint64(1) << 42
)

func warmAddr(core int, line int) uint64 {
	return warmRegionBase + uint64(core)<<30 + uint64(line)*mem.LineSize
}

// l3Access services one sampled access at the shared-L3 boundary,
// allocating on miss, and returns its latency.
func (r *Runtime) l3Access(addr uint64, t uint64, src dram.Source) uint64 {
	r.clock = t
	if r.mc.L3.Lookup(addr) {
		return l3HitLatency
	}
	lat := r.mc.DemandAccess(addr, t, src)
	r.mc.L3.Insert(addr)
	return l3HitLatency + lat
}

// appAccessesPerInterval is each core's sampled L3-level access count per
// work interval.
func (r *Runtime) appAccessesPerInterval() int {
	n := int(r.app.QPS * float64(r.app.LinesPerQuery) * r.cfg.SleepMillis / 1e3)
	if n < 300 {
		n = 300 // background-activity floor for very-low-QPS apps
	}
	if n > 4000 {
		n = 4000
	}
	return n
}

// measureIntervals reports warm-up plus measured work intervals.
func (r *Runtime) measureIntervals() int { return warmupIntervals + r.cfg.MeasureIntervals }

// beginMeasure opens the measurement phase: the clock jumps to a base clear
// of convergence timestamps and the stepping state resets. The phase then
// runs as measureIntervals stepMeasure ticks, closed by finishMeasure.
func (r *Runtime) beginMeasure() {
	base := uint64(1) << 44 // clock base, clear of convergence timestamps
	r.meas = &measurement{
		rng:       sim.NewRNG(r.cfg.Seed ^ 0xBEEF),
		demandLat: r.reg.Histogram("platform/demand_latency_cycles"),
		interval:  r.cfg.IntervalCycles(),
		base:      base,
		pfNow:     base,
	}
	r.clock = base
}

// stepMeasure executes work interval k (warm-up intervals included — the
// first warmupIntervals ticks run identically and reset statistics at the
// boundary). Exactly one of scanner/driver is non-nil for the dedup
// configurations.
func (r *Runtime) stepMeasure(k int) error {
	m, cfg, sc := r.meas, r.cfg, r.sc
	interval := m.interval
	start := m.base + uint64(k)*interval
	r.clock = start
	if k == warmupIntervals {
		r.mc.L3.ResetStats()
		r.dr.ResetBandwidthWindows()
		m.burst.Reset()
		m.demandLat.Reset()
	}
	measuring := k >= warmupIntervals
	cfg.Ledger.SetPass(cfg.ConvergePasses + k)
	if r.ras != nil {
		// Patrol scrub keeps running through the measurement phase as
		// background DRAM traffic; the tracker keeps refining the UE-rate
		// estimate (the engine swap itself only happens during converge).
		r.ras.tick(start, ^uint64(0))
	}

	// Application accesses, the kthread's streaming sweep, and the
	// PageForge engine's fetches must reach the DRAM model in time order;
	// the emitter issues app traffic incrementally between dedup-engine
	// steps.
	em := r.newEmitter(start, interval, measuring)
	end := start + interval

	// Pressure backpressure: the controller pulls the page budget up when
	// free frames are scarce (merging is reclaim) and sheds it when
	// demand-path tail latency degrades; the ladder's bottom rung stops
	// scanning entirely. With the layer off, budget is exactly PagesToScan
	// and the interval is bit-identical to older builds.
	budget := cfg.PagesToScan
	paused := false
	if r.ps != nil {
		budget = r.ps.ctl.ScanBudget(budget)
		paused = r.ps.paused()
		if paused {
			r.ps.rep.PausedPasses++
		}
	}

	switch scanner, driver := r.scanner, r.driver; {
	case paused:
		if measuring {
			m.burst.Add(0)
		}
	case scanner != nil:
		before := scanner.Cycles.Total()
		bytesBefore := scanner.BytesTouched
		res := scanner.ScanBatch(budget)
		busy := scanner.Cycles.Total() - before
		if measuring {
			m.burst.Add(float64(busy))
		}
		// Replay the batch's streaming as cold L3 traffic across the busy
		// window, interleaved with app accesses.
		lines := int((scanner.BytesTouched - bytesBefore) / mem.LineSize / ksmStreamSubsample)
		if lines > 100_000 {
			lines = 100_000
		}
		if lines > 0 {
			// An overloaded kthread overruns its period; its streaming must
			// still stay inside this interval's timeline so the DRAM model
			// sees monotonic time across intervals.
			window := busy
			if window > interval {
				window = interval
			}
			if window == 0 {
				window = 1
			}
			kstep := window / uint64(lines+1)
			kt := start
			for i := 0; i < lines; i++ {
				em.emitUntil(kt)
				addr := ksmRegionBase + m.ksmNext*mem.LineSize
				m.ksmNext++
				r.l3Access(addr, kt, dram.SrcKSM)
				kt += kstep
			}
		}
		m.pagesSinceChurn += res.Scanned
	case driver != nil:
		if m.pfNow < start {
			m.pfNow = start
		}
		ccBefore := driver.CoreCycles
		// Scan candidates until the page budget or the interval's wall clock
		// runs out. The pump issues app traffic line-by-line in step with
		// the engine's fetches, so DRAM sees one merged, time-ordered stream.
		r.pump.emit = em.emitUntil
		scanned, _, done := driver.ScanBatch(budget, m.pfNow, end)
		m.pfNow = done
		m.pagesSinceChurn += scanned
		r.pump.emit = nil
		if measuring {
			m.burst.Add(float64(driver.CoreCycles - ccBefore))
		}
	default:
		if measuring {
			m.burst.Add(0)
		}
	}
	em.emitUntil(end)
	if sc.Enabled() {
		name := "interval"
		if !measuring {
			name = "warmup_interval"
		}
		sc.Complete(obs.TIDPlatform, "interval", name, start, interval, "k", uint64(k))
	}

	if r.alg != nil && m.pagesSinceChurn >= r.alg.MergeablePages() {
		if sc.Enabled() {
			sc.Instant(obs.TIDPlatform, "interval", "churn", end, "pages", uint64(m.pagesSinceChurn))
		}
		if err := r.img.ChurnVolatile(); err != nil {
			return err
		}
		m.pagesSinceChurn = 0
	}
	if r.ps != nil {
		// One observation window per interval: demand-path p99 into the
		// latency backpressure, then watermarks and the ladder. Window stamps
		// continue the converge pass numbering.
		r.ps.observeInterval(cfg.ConvergePasses+k, end, m.demandLat.P99())
	}
	r.sample("measure", k, end)
	return r.verify("measure", k)
}

// finishMeasure closes the measurement phase, parking the clock at the
// phase's end so post-measurement consumers see a fully-elapsed timeline,
// and extracts the measured statistics into the result.
func (r *Runtime) finishMeasure() {
	m, res := r.meas, r.res
	r.clock = m.base + uint64(r.measureIntervals())*m.interval
	res.BurstMean = m.burst.Mean()
	res.BurstStd = m.burst.Stddev()
	res.L3MissRate = r.mc.L3.MissRate()
	res.AvgDemandLatency = m.demandLat.Mean()
	res.DemandLatP50 = m.demandLat.P50()
	res.DemandLatP95 = m.demandLat.P95()
	res.DemandLatP99 = m.demandLat.P99()
	res.DemandLatMax = m.demandLat.Max()
	res.MeasuredCycles = uint64(r.cfg.MeasureIntervals) * r.cfg.IntervalCycles()
}

// appEmitter issues the sampled application L3 traffic incrementally in
// time order: one round (one access per core) every step, so dedup-engine
// activity can be merged into the same monotonic DRAM timeline.
type appEmitter struct {
	r         *Runtime
	t         uint64
	step      uint64
	end       uint64
	measuring bool
}

func (r *Runtime) newEmitter(start, interval uint64, measuring bool) *appEmitter {
	n := r.appAccessesPerInterval()
	return &appEmitter{
		r:         r,
		t:         start,
		step:      interval / uint64(n+1),
		end:       start + interval,
		measuring: measuring,
	}
}

// emitUntil issues app rounds with timestamps up to the deadline (bounded
// by the interval's end).
func (e *appEmitter) emitUntil(deadline uint64) {
	if deadline > e.end {
		deadline = e.end
	}
	r := e.r
	m := r.meas
	pCold := r.app.BaselineL3Miss
	for e.t < deadline {
		for core := 0; core < r.cfg.Cores; core++ {
			var addr uint64
			if m.rng.Bool(pCold) {
				// Cold misses land on random rows across the memory system
				// (the row-buffer locality of real demand misses is poor);
				// a random 2^26-line region makes L3 reuse negligible.
				addr = coldRegionBase + (m.rng.Uint64()%(1<<26))*mem.LineSize
			} else {
				addr = warmAddr(core, m.rng.Intn(warmLinesPerCore))
			}
			lat := r.l3Access(addr, e.t, dram.SrcCore)
			if e.measuring {
				m.demandLat.Add(float64(lat))
			}
		}
		e.t += e.step
	}
}
