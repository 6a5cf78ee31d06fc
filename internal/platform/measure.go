package platform

import (
	"math"

	"repro/internal/dram"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/pageforge"
	"repro/internal/sim"
	"repro/internal/tailbench"
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

type measurement struct {
	img   *tailbench.Image
	dr    *dram.DRAM
	mc    *memctrl.Controller
	cfg   Config
	app   tailbench.Profile
	clock *uint64
	rng   *sim.RNG

	coreZipf []float64
	burst    sim.Online
	// demandLat is the full latency distribution of sampled application
	// accesses (registered as platform/demand_latency_cycles): the latency
	// experiments report its mean and tail quantiles, not just the mean.
	demandLat *obs.Histogram
	trace     obs.Scope
	coldNext  uint64 // monotonically fresh cold-line counter
	ksmNext   uint64 // monotonically fresh KSM-stream counter

	// pump interleaves application traffic into the PageForge engine's
	// fetch stream at line granularity.
	pump *pumpFetcher

	// onInterval, when set, runs at each work-interval boundary (RAS: the
	// patrol-scrub slice and UE-rate tracker observation).
	onInterval func(start uint64)

	// ps, when non-nil, is the armed pressure layer: it scales the
	// per-interval scan budget (boost under frame pressure, shed under
	// latency throttling), pauses scanning on the ladder's bottom rung, and
	// receives one observation window per interval.
	ps *pressureState

	// verify, when set, runs after each completed interval (post-churn); a
	// non-nil error aborts the measurement.
	verify func(k int) error

	// ledger, when non-nil, receives the pass stamp for each interval
	// (continuing the converge pass numbering); sample, when set, takes one
	// series sample at each interval boundary. Both are purely observational.
	ledger *obs.Ledger
	sample func(k int, end uint64)

	// Per-phase stepping state, initialized by begin and advanced by
	// stepInterval: the interval length and clock base, the PageForge
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

func newMeasurement(img *tailbench.Image, dr *dram.DRAM,
	mc *memctrl.Controller, cfg Config, app tailbench.Profile, clock *uint64,
	reg *obs.Registry) *measurement {

	m := &measurement{
		img: img, dr: dr, mc: mc, cfg: cfg, app: app, clock: clock,
		rng:       sim.NewRNG(cfg.Seed ^ 0xBEEF),
		demandLat: reg.Histogram("platform/demand_latency_cycles"),
	}
	total := 0.0
	for i := 0; i < cfg.Cores; i++ {
		w := 1.0 / math.Pow(float64(i+1), cfg.ZipfS)
		m.coreZipf = append(m.coreZipf, w)
		total += w
	}
	for i := range m.coreZipf {
		m.coreZipf[i] /= total
	}
	return m
}

func (m *measurement) zipfCore() int {
	u := m.rng.Float64()
	for i, w := range m.coreZipf {
		if u < w {
			return i
		}
		u -= w
	}
	return m.cfg.Cores - 1
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
func (m *measurement) l3Access(addr uint64, t uint64, src dram.Source) uint64 {
	*m.clock = t
	if m.mc.L3.Lookup(addr) {
		return l3HitLatency
	}
	lat := m.mc.DemandAccess(addr, t, src)
	m.mc.L3.Insert(addr)
	return l3HitLatency + lat
}

// appAccessesPerInterval is each core's sampled L3-level access count per
// work interval.
func (m *measurement) appAccessesPerInterval() int {
	n := int(m.app.QPS * float64(m.app.LinesPerQuery) * m.cfg.SleepMillis / 1e3)
	if n < 300 {
		n = 300 // background-activity floor for very-low-QPS apps
	}
	if n > 4000 {
		n = 4000
	}
	return n
}

// begin opens the measurement phase: the clock jumps to a base clear of
// convergence timestamps and the stepping state resets. The phase then runs
// as warmupIntervals+MeasureIntervals stepInterval ticks, closed by finish.
func (m *measurement) begin() {
	m.interval = m.cfg.IntervalCycles()
	m.base = uint64(1) << 44 // clock base, clear of convergence timestamps
	*m.clock = m.base
	m.pfNow = m.base
	m.pagesSinceChurn = 0
}

// stepInterval executes work interval k (warm-up intervals included — the
// first warmupIntervals ticks run identically and reset statistics at the
// boundary). Exactly one of scanner/driver is non-nil for the dedup
// configurations.
func (m *measurement) stepInterval(k int, scanner *ksm.Scanner, driver *pageforge.Driver) error {
	interval := m.interval
	base := m.base
	{
		start := base + uint64(k)*interval
		*m.clock = start
		if k == warmupIntervals {
			m.mc.L3.ResetStats()
			m.dr.ResetBandwidthWindows()
			m.burst.Reset()
			m.demandLat.Reset()
		}
		measuring := k >= warmupIntervals
		m.ledger.SetPass(m.cfg.ConvergePasses + k)
		if m.onInterval != nil {
			m.onInterval(start)
		}

		// Application accesses, the kthread's streaming sweep, and the
		// PageForge engine's fetches must reach the DRAM model in time
		// order; the emitter issues app traffic incrementally between
		// dedup-engine steps.
		em := m.newEmitter(start, interval, measuring)
		end := start + interval

		// Pressure backpressure: the controller pulls the page budget up
		// when free frames are scarce (merging is reclaim) and sheds it when
		// demand-path tail latency degrades; the ladder's bottom rung stops
		// scanning entirely. With the layer off, budget is exactly
		// PagesToScan and the interval is bit-identical to older builds.
		budget := m.cfg.PagesToScan
		paused := false
		if m.ps != nil {
			budget = m.ps.ctl.ScanBudget(budget)
			paused = m.ps.paused()
			if paused {
				m.ps.rep.PausedPasses++
			}
		}

		switch {
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
			// Replay the batch's streaming as cold L3 traffic across the
			// busy window, interleaved with app accesses.
			lines := int((scanner.BytesTouched - bytesBefore) / mem.LineSize / ksmStreamSubsample)
			if lines > 100_000 {
				lines = 100_000
			}
			if lines > 0 {
				// An overloaded kthread overruns its period; its streaming
				// must still stay inside this interval's timeline so the
				// DRAM model sees monotonic time across intervals.
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
					m.l3Access(addr, kt, dram.SrcKSM)
					kt += kstep
				}
			}
			m.pagesSinceChurn += res.Scanned
		case driver != nil:
			if m.pfNow < start {
				m.pfNow = start
			}
			ccBefore := driver.CoreCycles
			// Scan candidates until the page budget or the interval's wall
			// clock runs out. The pump issues app traffic line-by-line in
			// step with the engine's fetches, so DRAM sees one merged,
			// time-ordered stream.
			m.pump.emit = em.emitUntil
			scanned, _, done := driver.ScanBatch(budget, m.pfNow, end)
			m.pfNow = done
			m.pagesSinceChurn += scanned
			m.pump.emit = nil
			if measuring {
				m.burst.Add(float64(driver.CoreCycles - ccBefore))
			}
		default:
			if measuring {
				m.burst.Add(0)
			}
		}
		em.emitUntil(end)
		if m.trace.Enabled() {
			name := "interval"
			if !measuring {
				name = "warmup_interval"
			}
			m.trace.Complete(obs.TIDPlatform, "interval", name, start, interval, "k", uint64(k))
		}

		if alg := algOf(scanner, driver); alg != nil && m.pagesSinceChurn >= alg.MergeablePages() {
			if m.trace.Enabled() {
				m.trace.Instant(obs.TIDPlatform, "interval", "churn", end, "pages", uint64(m.pagesSinceChurn))
			}
			if err := m.img.ChurnVolatile(); err != nil {
				return err
			}
			m.pagesSinceChurn = 0
		}
		if m.ps != nil {
			// One observation window per interval: demand-path p99 into the
			// latency backpressure, then watermarks and the ladder. Window
			// stamps continue the converge pass numbering.
			m.ps.observeInterval(m.cfg.ConvergePasses+k, end, m.demandLat.P99())
		}
		if m.sample != nil {
			m.sample(k, end)
		}
		if m.verify != nil {
			if err := m.verify(k); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish closes the measurement phase, parking the clock at the phase's
// end so post-measurement consumers see a fully-elapsed timeline.
func (m *measurement) finish() {
	*m.clock = m.base + uint64(warmupIntervals+m.cfg.MeasureIntervals)*m.interval
}

func algOf(s *ksm.Scanner, d *pageforge.Driver) *ksm.Algorithm {
	if s != nil {
		return s.Alg
	}
	if d != nil {
		return d.Alg
	}
	return nil
}

// appEmitter issues the sampled application L3 traffic incrementally in
// time order: one round (one access per core) every step, so dedup-engine
// activity can be merged into the same monotonic DRAM timeline.
type appEmitter struct {
	m         *measurement
	t         uint64
	step      uint64
	end       uint64
	measuring bool
}

func (m *measurement) newEmitter(start, interval uint64, measuring bool) *appEmitter {
	n := m.appAccessesPerInterval()
	return &appEmitter{
		m:         m,
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
	m := e.m
	pCold := m.app.BaselineL3Miss
	for e.t < deadline {
		for core := 0; core < m.cfg.Cores; core++ {
			var addr uint64
			if m.rng.Bool(pCold) {
				// Cold misses land on random rows across the memory system
				// (the row-buffer locality of real demand misses is poor);
				// a random 2^26-line region makes L3 reuse negligible.
				addr = coldRegionBase + (m.rng.Uint64()%(1<<26))*mem.LineSize
			} else {
				addr = warmAddr(core, m.rng.Intn(warmLinesPerCore))
			}
			lat := m.l3Access(addr, e.t, dram.SrcCore)
			if e.measuring {
				m.demandLat.Add(float64(lat))
			}
		}
		e.t += e.step
	}
}

// fill extracts the measured statistics into the result.
func (m *measurement) fill(res *Result) {
	res.BurstMean = m.burst.Mean()
	res.BurstStd = m.burst.Stddev()
	res.L3MissRate = m.mc.L3.MissRate()
	res.AvgDemandLatency = m.demandLat.Mean()
	res.DemandLatP50 = m.demandLat.P50()
	res.DemandLatP95 = m.demandLat.P95()
	res.DemandLatP99 = m.demandLat.P99()
	res.DemandLatMax = m.demandLat.Max()
	res.MeasuredCycles = uint64(m.cfg.MeasureIntervals) * m.cfg.IntervalCycles()
}

// totalIntervals reports warm-up plus measured work intervals.
func (m *measurement) totalIntervals() int { return warmupIntervals + m.cfg.MeasureIntervals }
