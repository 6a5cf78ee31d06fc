package platform

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/pageforge"
	"repro/internal/pressure"
	"repro/internal/tailbench"
	"repro/internal/vm"
)

// The tick-driven runtime. Run's converge-then-measure protocol is really a
// sequence of discrete ticks — one convergence pass, then one measurement
// interval — with all state between ticks held in loop locals. Runtime
// hoists those locals into a resumable machine: Start builds the world,
// each Step advances exactly one tick, Inject feeds live workload events
// (VM spawn/kill, phase change, balloon storm, fault storm, host crash)
// into the stream, and Drain steps to completion. Run is a thin driver over
// it, so batch and streaming execution are the same code path and their
// Results are bit-identical by construction.
//
// Live events apply at the top of a convergence pass, in Pass order, before
// the pass scans — exactly where the config-scheduled Events list applies
// them — so a run that Injects an event before stepping past its pass is
// indistinguishable from a run whose Config carried the same schedule. The
// applied-event cursor and the storm windows the events open are part of
// the checkpointed world (worldPayload v2): a crash replay re-applies the
// replayed window's events identically, and a snapshot restored into a
// fresh runtime re-derives the storm actions for the passes it replays.

// EventKind discriminates live workload events.
type EventKind int

// The live-event vocabulary.
const (
	// EvVMSpawn boots one more VM mid-run: a full image region (dup, zero,
	// unique pages) written on the guest demand path, then made mergeable.
	EvVMSpawn EventKind = iota
	// EvVMKill tears down the live VM with ID Event.VM: every present frame
	// is released and the address space leaves the mergeable set.
	EvVMKill
	// EvPhaseChange rewrites Event.Frac of the unique-page population with
	// fresh content and makes the rewritten pages the new volatile set — an
	// application phase boundary that invalidates prior merge work.
	EvPhaseChange
	// EvBalloonStorm opens an allocation-burst window: Event.Pages burst
	// writes per pass for Event.Passes passes, torn down at the window's
	// end. One window is open at a time; a later storm replaces the open
	// one (the teardown releases the whole burst region either way). Under
	// an armed pressure layer the written pages count toward the pressure
	// report's BurstPages. No-op for profiles without a burst region.
	EvBalloonStorm
	// EvFaultStorm multiplies the DRAM fault model's transient rates by
	// Event.Boost for Event.Passes passes. No-op without an armed fault
	// model.
	EvFaultStorm
	// EvCrash kills the host at the boundary closing pass Event.Pass. It
	// never enters the pass stream: Start builds the crash plan from the
	// config-scheduled EvCrash entries, and Inject adds an injected one to
	// that plan.
	EvCrash
)

// String renders the event kind.
func (k EventKind) String() string {
	switch k {
	case EvVMSpawn:
		return "vm_spawn"
	case EvVMKill:
		return "vm_kill"
	case EvPhaseChange:
		return "phase_change"
	case EvBalloonStorm:
		return "balloon_storm"
	case EvFaultStorm:
		return "fault_storm"
	case EvCrash:
		return "crash"
	default:
		return "?"
	}
}

// Event is one live workload event, applied at the top of convergence pass
// Pass (before the pass scans). Fields beyond Pass/Kind are per-kind
// parameters; unused ones are ignored.
type Event struct {
	Pass int
	Kind EventKind

	VM     int     // EvVMKill: hypervisor VM ID to tear down
	Pages  int     // EvBalloonStorm: burst pages written per pass
	Passes int     // EvBalloonStorm, EvFaultStorm: window length in passes
	Frac   float64 // EvPhaseChange: fraction of unique pages rewritten
	Boost  float64 // EvFaultStorm: transient fault-rate multiplier
}

// stormDupFrac is the duplicate fraction of balloon-storm writes: half
// of each storm's pages draw contents from a small shared pool the scanner
// can merge away (serverless cold-start: near-identical sandboxes spiking
// allocation), which is the reclaim race the pressure layer is built for.
const stormDupFrac = 0.5

// eventState is the live-event stream's mutable state: the schedule, the
// applied cursor, and the storm windows applied events opened. The cursor
// and windows are checkpointed (worldPayload v2) so crash replays and
// fresh-runtime restores re-derive per-pass storm actions identically.
type eventState struct {
	events []Event
	cursor int

	bsStart, bsUntil, bsPages int // balloon storm: [bsStart, bsUntil)
	fsStart, fsUntil          int // fault storm: [fsStart, fsUntil)
	fsBoost                   float64
}

func newEventState() *eventState {
	return &eventState{bsStart: -1, bsUntil: -1, fsStart: -1, fsUntil: -1, fsBoost: 1}
}

// runPhase is the runtime's tick type.
type runPhase int

const (
	phaseConverge runPhase = iota
	phaseMeasure
	phaseDone
)

// Runtime is the resumable tick-driven execution of one (mode, app, cfg)
// run. Not goroutine-safe: one goroutine owns Start/Step/Inject/Drain.
type Runtime struct {
	mode Mode
	app  tailbench.Profile
	cfg  Config

	// World, built by Start.
	res   *Result
	img   *tailbench.Image
	dr    *dram.DRAM
	mc    *memctrl.Controller
	reg   *obs.Registry
	sc    obs.Scope
	ras   *rasState
	ps    *pressureState
	cs    *crashState
	ev    *eventState
	pump  *pumpFetcher
	track *obs.SeriesTrack
	clock uint64

	// Engine handles. alg is the one Algorithm 1 state both engines run on
	// (nil for Baseline). scanner/driver are the live pair (degradation swaps
	// them); hwDriver retains the hardware engine across demotions and is
	// the statistics source; fallback is the software stand-in, created
	// once.
	alg      *ksm.Algorithm
	scanner  *ksm.Scanner
	driver   *pageforge.Driver
	hwDriver *pageforge.Driver
	fallback *ksm.Scanner

	// Engine-selection history across the reversible demote/re-promote
	// swaps: the pass of the first demotion and of the latest re-promotion
	// (-1: never).
	degradedAtPass   int
	repromotedAtPass int

	// Convergence-loop state (the old loop locals, now resumable).
	now            uint64
	candidates     uint64
	prevFrames     int
	passes         int
	p              int // next convergence pass to run
	convergedEarly bool

	// Measurement-phase state. The engine pair needs no pinning: the swap
	// policy only acts during convergence.
	meas             *measurement
	k                int // next measurement interval to run
	dedupBytesBefore uint64

	phase    runPhase
	started  bool
	startErr error // a failed Start's error, which every later entry point returns
}

// NewRuntime prepares a runtime; Start builds the world.
func NewRuntime(mode Mode, app tailbench.Profile, cfg Config) *Runtime {
	return &Runtime{mode: mode, app: app, cfg: cfg}
}

// Start builds the simulated world — image, memory system, engines, RAS,
// pressure, crash machinery, event stream — leaving the runtime at the top
// of convergence pass 0. It performs exactly the setup the batch Run
// performs, in the same order. After a failed Start every entry point
// returns its error.
func (r *Runtime) Start() error {
	if r.started {
		return fmt.Errorf("platform: runtime already started")
	}
	r.started = true
	r.startErr = r.build()
	return r.startErr
}

// ready reports why the runtime cannot run: it was never started, or its
// Start failed.
func (r *Runtime) ready() error {
	if !r.started {
		return fmt.Errorf("platform: runtime not started")
	}
	return r.startErr
}

// build is Start's body: it builds the world into r.
func (r *Runtime) build() error {
	if r.cfg.Cores < 1 {
		return fmt.Errorf("platform: %d cores, want at least 1", r.cfg.Cores)
	}
	mode, app := r.mode, r.app

	// Split the config-scheduled events: EvCrash entries go to the crash
	// plan (they are boundary actions, not pass-top events); the rest sort
	// stably by pass into the live stream.
	r.ev = newEventState()
	var crashPasses []int
	for _, e := range r.cfg.Events {
		if e.Kind == EvCrash {
			crashPasses = append(crashPasses, e.Pass)
			continue
		}
		r.ev.events = append(r.ev.events, e)
	}
	sort.SliceStable(r.ev.events, func(i, j int) bool {
		return r.ev.events[i].Pass < r.ev.events[j].Pass
	})
	cfg := r.cfg

	// Physical memory: enough headroom for images plus churn copies — or,
	// under an armed pressure layer with overcommit, deliberately less than
	// guest demand: the resident images must fit (the build phase has no
	// reclaim to lean on), but the burst region does not, which is exactly
	// the storm the resilience machinery is there to absorb.
	physFrames := cfg.VMs*app.PagesPerVM*2 + 1024
	if cfg.Pressure.Enabled && cfg.Pressure.OvercommitRatio > 1 {
		demand := cfg.VMs * (app.PagesPerVM + app.BurstPagesPerVM)
		physFrames = int(float64(demand)/cfg.Pressure.OvercommitRatio) + 1
		if floor := cfg.VMs*app.PagesPerVM + 64; physFrames < floor {
			physFrames = floor
		}
	}
	img, err := tailbench.BuildImage(app, cfg.VMs, physFrames, cfg.Seed)
	if err != nil {
		return fmt.Errorf("platform: building image: %w", err)
	}
	r.img = img
	if cfg.Verifier != nil {
		cfg.Verifier.BeginRun(mode, img)
	}

	// The measurement L3 lives in the controller: application misses fill
	// it and PageForge fetches probe it.
	dr := dram.New(cfg.DRAM)
	mc := memctrl.New(dr, img.HV.Phys, cache.NewCache(cache.Config{SizeBytes: measureL3Bytes, Ways: measureL3Ways}))
	r.dr, r.mc = dr, mc

	r.res = &Result{Mode: mode, App: app, DegradedAtPass: -1, RepromotedAtPass: -1}

	// Observability: one registry per run (single-goroutine handles), and a
	// trace process on the shared tracer when tracing is on. Both are purely
	// observational — they never feed back into simulated time.
	r.reg = obs.NewRegistry()
	if cfg.Trace.Enabled() {
		pid := cfg.Trace.NewProcess(fmt.Sprintf("%s/%s", mode, app.Name))
		r.sc = obs.Scope{T: cfg.Trace, PID: pid}
		cfg.Trace.NameThread(pid, obs.TIDPlatform, "platform")
		cfg.Trace.NameThread(pid, obs.TIDDriver, "dedup-driver")
		cfg.Trace.NameThread(pid, obs.TIDEngine, "pfe-engine")
		cfg.Trace.NameThread(pid, obs.TIDRAS, "ras")
		cfg.Trace.NameThread(pid, obs.TIDScrub, "scrubber")
	}
	sc := r.sc

	// RAS: attach the fault model to the controller (every ECC-decoded line
	// fetch now passes through it) and arm the patrol scrubber and the
	// degradation tracker. With Faults disabled nothing is created and the
	// machine is bit-identical to earlier fault-free builds.
	if cfg.Faults.Enabled() {
		fc := cfg.Faults
		if fc.Frames == 0 {
			fc.Frames = img.HV.Phys.TotalFrames()
		}
		r.ras = &rasState{
			model:   faults.NewModel(fc),
			scrub:   &memctrl.Scrubber{MC: mc, Trace: sc},
			tracker: faults.NewRateTracker(faults.DefaultTrip()),
			mc:      mc,
		}
		mc.Faults = r.ras.model
	}

	// Pressure: arm the resilience layer — controller, ladder, balloon, and
	// the hypervisor's stall/reclaim hook. Armed only after the image is
	// built: the build phase sizes within the floor by construction.
	if cfg.Pressure.Enabled {
		r.ps = newPressureState(cfg.Pressure, img, r.ras, sc)
	}
	r.degradedAtPass, r.repromotedAtPass = -1, -1

	// Deduplication engine for this mode. The PageForge engine's fetches go
	// through a pumped fetcher so the measurement phase can interleave
	// application traffic with the hardware's line requests in time order.
	r.pump = &pumpFetcher{mc: mc}
	switch mode {
	case Baseline:
	case KSM:
		r.alg = ksm.NewAlgorithmSharded(img.HV, ksm.JHasher{}, cfg.ShardBits)
		r.scanner = r.newScanner()
		r.scanner.Ledger = cfg.Ledger
	case PageForge:
		r.alg = ksm.NewAlgorithmSharded(img.HV, ksm.NewECCHasher(), cfg.ShardBits)
		engine := pageforge.NewEngine(r.pump)
		engine.Trace = sc
		r.driver = pageforge.NewDriver(r.alg, engine, cfg.Driver)
		r.driver.Trace = sc
		r.driver.Ledger = cfg.Ledger
	}
	// Provenance: wire the hypervisor seams the engines cannot see — CoW
	// breaks on guest writes, and evictions split into balloon reclaims vs
	// plain releases by the pressure layer's in-reclaim flag. Installed only
	// when ledgering so the unledgered hot paths keep their nil-hook branch.
	if cfg.Ledger.Enabled() {
		ldg := cfg.Ledger
		ps := r.ps
		img.HV.OnCoWBreak = func(id vm.PageID, old, fresh mem.PFN) {
			ldg.Append(obs.LedgerEvent{Kind: obs.LKCoWBroken, VM: id.VM,
				GFN: uint64(id.GFN), PFN: uint64(old), Arg: uint64(fresh)})
		}
		img.HV.OnEvict = func(id vm.PageID, pfn mem.PFN) {
			kind := obs.LKEvicted
			if ps != nil && ps.inReclaim {
				kind = obs.LKBallooned
			}
			ldg.Append(obs.LedgerEvent{Kind: kind, VM: id.VM, GFN: uint64(id.GFN), PFN: uint64(pfn)})
		}
	}

	// hwDriver keeps the hardware driver reachable for statistics even when
	// the degradation policy swaps the live engine to software KSM.
	r.hwDriver = r.driver
	// Per-pass time series: one track per run, sampled at every convergence
	// and measurement boundary.
	if cfg.Series.Enabled() {
		r.track = cfg.Series.Track(fmt.Sprintf("%s/%s", mode, app.Name))
	}

	r.prevFrames = -1
	r.passes = cfg.ConvergePasses
	// Crash tolerance: checkpoint/restore machinery, armed only when a crash
	// event or a checkpoint cadence is configured. Baseline has no dedup
	// state to recover (and no convergence phase to crash in). Snapshot and
	// Restore capture the same world without arming it.
	if mode != Baseline && (len(crashPasses) > 0 || cfg.CheckpointEvery > 0) {
		r.cs = newCrashState(cfg, crashPasses)
		// Boot checkpoint: recovery always has at least the pre-pass world
		// to fall back to.
		if err := r.cs.checkpoint(r, -1); err != nil {
			return err
		}
	}
	r.phase = phaseConverge
	return nil
}

// newScanner builds a software KSM engine over the run's algorithm state:
// the KSM mode's scanner, or PageForge's software fallback.
func (r *Runtime) newScanner() *ksm.Scanner {
	s := ksm.NewScanner(r.alg, r.cfg.KSMCosts)
	s.Trace = r.sc
	s.TraceNow = func() uint64 { return r.clock }
	return s
}

// verify delivers one observation point to the configured verifier.
// Quarantine exclusion is in force only while the hardware driver is the
// live engine.
func (r *Runtime) verify(phase string, idx int) error {
	if r.cfg.Verifier == nil {
		return nil
	}
	p := VerifyPoint{Mode: r.mode, Phase: phase, Index: idx, HV: r.img.HV, Alg: r.alg}
	if r.driver != nil {
		p.Quarantined = r.driver.Quarantined
	}
	return r.cfg.Verifier.Interval(p)
}

// sample takes one series sample: it re-publishes the cumulative layer
// counters into the registry, then lets the track window them into deltas.
// publishMetrics is an idempotent overwrite and the end-of-run publish
// rewrites every name, so mid-run publishes cannot perturb the final
// snapshot.
func (r *Runtime) sample(phase string, idx int, now uint64) {
	if r.track == nil {
		return
	}
	r.publishMetrics()
	r.track.Sample(phase, idx, now, r.reg)
}

// Step advances the runtime by exactly one tick — one convergence pass or
// one measurement interval — and reports whether the run is complete. After
// done, Result returns the finished result.
func (r *Runtime) Step() (done bool, err error) {
	if err := r.ready(); err != nil {
		return false, err
	}
	for {
		switch r.phase {
		case phaseConverge:
			if r.mode == Baseline || r.convergedEarly || r.p >= r.cfg.ConvergePasses {
				r.finishConverge()
				r.phase = phaseMeasure
				continue
			}
			if err := r.stepConverge(); err != nil {
				r.phase = phaseDone
				return true, err
			}
			return false, nil
		case phaseMeasure:
			if r.k >= r.measureIntervals() {
				r.finishRun()
				r.phase = phaseDone
				continue
			}
			if err := r.stepMeasure(r.k); err != nil {
				r.phase = phaseDone
				return true, err
			}
			r.k++
			return false, nil
		default:
			return true, nil
		}
	}
}

// applyEvents applies every pending live event scheduled at or before pass
// p, then drives the storm windows: balloon-storm burst writes inside the
// window (teardown at its end) and the fault model's transient-rate boost,
// both re-derived from the checkpointed window fields every pass so crash
// replays and fresh-runtime restores reproduce them exactly. Burst writes
// run on the guest demand path, so under an armed pressure layer they stall
// and balloon when the arena is exhausted; an error is a genuine OOM (the
// reclaim hook gave up).
func (r *Runtime) applyEvents(p int) error {
	ev := r.ev
	for ev.cursor < len(ev.events) && ev.events[ev.cursor].Pass <= p {
		e := ev.events[ev.cursor]
		ev.cursor++
		if err := r.applyEvent(p, e); err != nil {
			return err
		}
	}
	if ev.bsUntil > ev.bsStart {
		switch {
		case p >= ev.bsStart && p < ev.bsUntil:
			n, err := r.img.BurstWrite(ev.bsPages, stormDupFrac)
			if r.ps != nil {
				r.ps.rep.BurstPages += uint64(n)
			}
			if err != nil {
				return fmt.Errorf("platform: event burst at pass %d: %w", p, err)
			}
			r.sc.Instant(obs.TIDPlatform, "event", "balloon_storm", r.now, "pages", uint64(n))
		case p == ev.bsUntil:
			released := r.img.ReleaseBurst()
			r.sc.Instant(obs.TIDPlatform, "event", "balloon_teardown", r.now, "pages", uint64(released))
		}
	}
	if r.ras != nil {
		boost := 1.0
		if p >= ev.fsStart && p < ev.fsUntil {
			boost = ev.fsBoost
		}
		r.ras.model.SetRateBoost(boost)
	}
	return nil
}

// applyEvent applies one live event at the top of pass p. Topology changes
// refresh the scan order so the engines see the new mergeable population
// (cursor position is preserved when still in range — mid-run arrivals do
// not restart the scan).
func (r *Runtime) applyEvent(p int, e Event) error {
	switch e.Kind {
	case EvVMSpawn:
		v, err := r.img.SpawnVM()
		if err != nil {
			return fmt.Errorf("platform: spawn at pass %d: %w", p, err)
		}
		r.alg.RefreshOrder()
		r.sc.Instant(obs.TIDPlatform, "event", "vm_spawn", r.now, "vm", uint64(v.ID))
	case EvVMKill:
		if err := r.img.KillVM(e.VM); err != nil {
			return fmt.Errorf("platform: kill at pass %d: %w", p, err)
		}
		r.alg.RefreshOrder()
		r.sc.Instant(obs.TIDPlatform, "event", "vm_kill", r.now, "vm", uint64(e.VM))
	case EvPhaseChange:
		if err := r.img.PhaseShift(e.Frac); err != nil {
			return fmt.Errorf("platform: phase shift at pass %d: %w", p, err)
		}
		r.sc.Instant(obs.TIDPlatform, "event", "phase_change", r.now, "pass", uint64(p))
	case EvBalloonStorm:
		r.ev.bsStart, r.ev.bsUntil, r.ev.bsPages = p, p+e.Passes, e.Pages
	case EvFaultStorm:
		r.ev.fsStart, r.ev.fsUntil, r.ev.fsBoost = p, p+e.Passes, e.Boost
	default:
		return fmt.Errorf("platform: event kind %v cannot appear in the pass stream", e.Kind)
	}
	return nil
}

// stepConverge runs one convergence pass: pending live events, the storm
// windows, one engine pass, the RAS slice, the health-driven engine swap,
// churn, verification, the convergence verdict, the series sample, and the
// checkpoint/crash boundary. Batch Run reaches
// it through Drain, so streamed and batch runs share this one body.
func (r *Runtime) stepConverge() error {
	cfg, img, ps, ras, cs, sc := r.cfg, r.img, r.ps, r.ras, r.cs, r.sc
	p := r.p
	cfg.Ledger.SetPass(p)
	if err := r.applyEvents(p); err != nil {
		return err
	}
	pages := r.alg.MergeablePages()
	switch {
	case ps != nil && ps.paused():
		// ScanPaused rung: the engine is shut off entirely this pass; churn
		// and the observation windows keep running so the ladder can see
		// recovery and step back up. The ledger records the whole shed pass
		// as one wasted-work event carrying the page budget the backpressure
		// threw away.
		ps.rep.PausedPasses++
		cfg.Ledger.Append(obs.LedgerEvent{Kind: obs.LKShed, Cause: obs.CauseBackpressureShed,
			VM: -1, PFN: obs.LedgerNoPFN, Arg: uint64(pages)})
	case r.scanner != nil:
		r.candidates += uint64(r.scanner.ScanPass(max(1, cfg.ShardWorkers)).Scanned)
	default:
		var scanned int
		scanned, _, r.now = r.driver.ScanBatch(pages, r.now, math.MaxUint64)
		r.candidates += uint64(scanned)
	}
	if ras != nil {
		r.now = ras.tick(r.now, uint64(p))
	}
	if ps != nil {
		r.now += ps.takeStallTicks()
		ps.observe(p, r.now)
	}
	// Unified engine selection: either health signal demotes the hardware
	// driver to software KSM on the same algorithm state (the software path
	// reads through the cores' own load path, not the poisoned ECC fetch pipe,
	// and costs core cycles the throttled rungs are willing to pay); both
	// clearing re-promotes the retained driver.
	wantSW := (ras != nil && ras.tracker.Degraded()) ||
		(ps != nil && ps.ladder.State() >= pressure.KSMFallback)
	switch {
	case wantSW && r.driver != nil:
		if r.fallback == nil {
			r.fallback = r.newScanner()
		}
		r.scanner = r.fallback
		r.driver = nil
		if r.degradedAtPass < 0 {
			r.degradedAtPass = p
		}
		r.repromotedAtPass = -1
		sc.Instant(obs.TIDRAS, "ras", "degrade_trip", r.now, "pass", uint64(p))
	case !wantSW && r.driver == nil && r.hwDriver != nil && r.degradedAtPass >= 0:
		r.driver = r.hwDriver
		r.scanner = nil
		r.repromotedAtPass = p
		sc.Instant(obs.TIDRAS, "ras", "repromote", r.now, "pass", uint64(p))
	}
	if err := img.ChurnVolatile(); err != nil {
		return fmt.Errorf("platform: churn at pass %d: %w", p, err)
	}
	if ps != nil {
		r.now += ps.takeStallTicks()
	}
	// Expose the pass clock to untimed components (the software scanner's
	// merge events) regardless of tracing — keeping the update unconditional
	// is what makes traced and untraced runs bit-identical. Nothing in the
	// simulation reads it back here.
	r.clock = r.now
	if err := r.verify("converge", p); err != nil {
		return err
	}
	frames := img.HV.Phys.AllocatedFrames()
	sc.Instant(obs.TIDPlatform, "interval", "pass", r.now, "frames", uint64(frames))
	converged := frames == r.prevFrames && p >= 2 && (ps == nil || ps.quiescent(p, r.ev.bsUntil))
	r.prevFrames = frames
	// Sample the series at the pass boundary, before the checkpoint: the
	// track's ring is part of the checkpointed world, so a replayed pass
	// re-takes exactly the samples the crash destroyed.
	r.sample("converge", p, r.now)
	// Close the pass boundary: periodic checkpoint, then the crash plan. A
	// restore rewinds every loop field (including prevFrames and the
	// convergence verdict baked into it) to the checkpointed pass; the loop
	// replays from there and re-reaches this boundary identically.
	if cs != nil {
		resume, restored, err := cs.boundary(r, p)
		if err != nil {
			return err
		}
		if restored && resume != p {
			r.p = resume + 1
			return nil
		}
		// resume == p means the crash restored the checkpoint captured at
		// this very boundary: the restored world is bit-identical to the
		// state the convergence verdict above was computed from, so fall
		// through rather than replaying a zero-pass window (which would skip
		// the verdict and converge one pass late).
	}
	if converged {
		r.passes = p + 1
		r.convergedEarly = true
	}
	r.p = p + 1
	return nil
}

// finishConverge closes the mass-merging phase — dedup bandwidth, crash
// report, footprint — and arms the measurement phase for interval stepping.
func (r *Runtime) finishConverge() {
	res, cfg := r.res, r.cfg
	if r.mode != Baseline {
		// A degraded run streamed bytes through both engines; the PageForge
		// side's DRAM volume and the software scanner's add.
		bytes := r.dr.TotalBytes(dram.SrcPageForge)
		if r.scanner != nil {
			bytes += r.scanner.DRAMBytes
		}
		gbps := 0.0
		if r.candidates > 0 {
			intervals := float64(r.candidates) / float64(cfg.PagesToScan)
			seconds := intervals * cfg.SleepMillis / 1e3
			gbps = float64(bytes) / 1e9 / seconds * fullScaleDepthFactor
		}
		res.DedupGBps = gbps
		res.ConvergedPasses = r.passes
	}
	if r.cs != nil {
		res.Crash = r.cs.rep
	}
	res.Footprint = r.img.MeasureFootprint()

	// Measurement phase: MeasureIntervals work intervals with application
	// cache traffic and the dedup engine interleaved, recording bursts,
	// pollution, and demand latency.
	r.beginMeasure()
	if r.scanner != nil {
		r.dedupBytesBefore = r.scanner.DRAMBytes
	} else {
		r.dedupBytesBefore = r.dr.TotalBytes(dram.SrcPageForge)
	}
}

// finishRun extracts every measured statistic into the Result.
func (r *Runtime) finishRun() {
	res, cfg := r.res, r.cfg
	r.finishMeasure()

	// Steady-state dedup bandwidth over the whole measurement phase
	// (including warm-up intervals: the engine works identically in both).
	var dedupBytes uint64
	if r.scanner != nil {
		dedupBytes = r.scanner.DRAMBytes - r.dedupBytesBefore
	} else if r.driver != nil {
		dedupBytes = r.dr.TotalBytes(dram.SrcPageForge) - r.dedupBytesBefore
	}
	phaseSeconds := float64(r.measureIntervals()) * cfg.SleepMillis / 1e3
	if phaseSeconds > 0 {
		res.SteadyDedupGBps = float64(dedupBytes) / 1e9 / phaseSeconds * fullScaleDepthFactor
	}

	// Application DRAM demand: the profile's baseline bandwidth scaled by
	// the measured miss-rate inflation (pollution makes the cores fetch more
	// lines from memory).
	res.DemandGBps = r.app.DemandGBps
	if r.app.BaselineL3Miss > 0 && res.L3MissRate > 0 {
		res.DemandGBps = r.app.DemandGBps * res.L3MissRate / r.app.BaselineL3Miss
	}
	res.TotalGBps = res.DemandGBps + res.DedupGBps

	if r.alg != nil {
		res.Stats = r.alg.Stats
	}
	if r.scanner != nil {
		res.KSMBreakdown = r.scanner.Cycles
	}
	if r.hwDriver != nil {
		res.PFBatchMean = r.hwDriver.HW.BatchCycles.Mean()
		res.PFBatchStd = r.hwDriver.HW.BatchCycles.Stddev()
		res.PFBatches = r.hwDriver.Batches
		res.PFLinesFetched = r.hwDriver.HW.LinesFetched
		res.PFNetworkHits = r.mc.Stats.PFNetworkHits
		res.PFDriverCycles = r.hwDriver.CoreCycles
		res.PFLineRetries = r.hwDriver.HW.LineRetries
		res.PFRetriesHealed = r.hwDriver.HW.RetriesHealed
		res.PFFaultAborts = r.hwDriver.HW.FaultAborts
		res.SWFallbacks = r.hwDriver.SWFallbacks
		res.QuarantinedFrames = r.hwDriver.QuarantinedFrames()
	}
	res.Degraded = r.degradedAtPass >= 0 && r.repromotedAtPass < 0
	res.DegradedAtPass = r.degradedAtPass
	res.RepromotedAtPass = r.repromotedAtPass
	if r.ras != nil {
		res.UERate = r.ras.tracker.Rate()
		res.ECCCorrected = r.mc.Stats.ECCCorrected
		res.ECCUncorrectable = r.mc.Stats.ECCUncorrectable
		res.ScrubLines = r.ras.scrub.Stats.Lines
		res.ScrubCorrected = r.ras.scrub.Stats.Corrected
		res.ScrubUEs = r.ras.scrub.Stats.Uncorrectable
	}
	if r.ps != nil {
		res.Pressure = r.ps.finalize()
	}

	r.publishMetrics()
	res.Metrics = r.reg.Snapshot()
}

// Inject schedules one live event into the running stream. Events apply at
// the top of a convergence pass; an event scheduled for a pass the runtime
// has already reached applies at the top of the next pass. EvCrash routes
// to the crash plan (CheckpointEvery or a config-scheduled EvCrash must
// have armed the machinery at Start). Only the convergence phase accepts
// events, and only for passes below ConvergePasses: the phase ends before
// any later pass, so such an event could never apply.
func (r *Runtime) Inject(e Event) error {
	if err := r.ready(); err != nil {
		return err
	}
	if r.mode == Baseline {
		return fmt.Errorf("platform: inject: Baseline runs no convergence passes")
	}
	if r.phase != phaseConverge || r.convergedEarly {
		return fmt.Errorf("platform: inject: run is past the convergence phase")
	}
	if e.Pass < r.p {
		e.Pass = r.p
	}
	if e.Pass >= r.cfg.ConvergePasses {
		return fmt.Errorf("platform: inject: %v at pass %d is past the last convergence pass %d",
			e.Kind, e.Pass, r.cfg.ConvergePasses-1)
	}
	if e.Kind == EvCrash {
		if r.cs == nil {
			return fmt.Errorf("platform: inject: crash machinery not armed (set CheckpointEvery or schedule an EvCrash)")
		}
		r.cs.plan.Add(e.Pass)
		return nil
	}
	// Insert at the sorted position past the applied cursor, after existing
	// same-pass events: injection order is application order, matching a
	// config schedule listing the same events in the same sequence.
	ev := r.ev
	i := ev.cursor
	for i < len(ev.events) && ev.events[i].Pass <= e.Pass {
		i++
	}
	ev.events = append(ev.events, Event{})
	copy(ev.events[i+1:], ev.events[i:])
	ev.events[i] = e
	return nil
}

// Drain steps the runtime to completion and returns the Result.
func (r *Runtime) Drain() (*Result, error) {
	for {
		done, err := r.Step()
		if err != nil {
			return nil, err
		}
		if done {
			return r.res, nil
		}
	}
}

// Stop abandons the run. Subsequent Steps report done; Result holds
// whatever had been filled in (complete only if the run finished first).
func (r *Runtime) Stop() {
	r.phase = phaseDone
}

// Snapshot serializes the entire simulated world at the last closed
// convergence-pass boundary — the same image the crash machinery
// checkpoints — without arming crash handling. Convergence phase of a
// started dedup run only (Baseline has no recoverable dedup state).
func (r *Runtime) Snapshot() ([]byte, error) {
	if err := r.ready(); err != nil {
		return nil, err
	}
	if r.alg == nil {
		return nil, fmt.Errorf("platform: snapshot: no dedup world armed")
	}
	if r.phase != phaseConverge {
		return nil, fmt.Errorf("platform: snapshot: only convergence-phase snapshots are supported")
	}
	blob, err := r.capture(r.p - 1)
	if err != nil {
		return nil, err
	}
	if o, ok := r.cfg.Verifier.(CrashObserver); ok {
		o.Checkpoint(r.p - 1)
	}
	return blob, nil
}

// Restore rewinds the world to a Snapshot blob, in place, resuming from the
// pass after the one the blob closed. The receiving runtime must be built
// from the same (mode, app, cfg) — a snapshot is loop state, not
// configuration — but need not be the one that took the snapshot: a Started
// fresh runtime restores to the same world (the blob carries the applied-
// event cursor and storm windows, so replayed passes re-derive live-event
// effects identically). A runtime carrying a stateful Verifier should only
// restore its own snapshots (the verifier's shadow model rewinds through
// the CrashObserver callback, which a fresh verifier has no history for).
func (r *Runtime) Restore(blob []byte) error {
	if err := r.ready(); err != nil {
		return err
	}
	if r.alg == nil {
		return fmt.Errorf("platform: restore: no dedup world armed")
	}
	if r.phase != phaseConverge {
		return fmt.Errorf("platform: restore: only convergence-phase restores are supported")
	}
	pass, err := r.restore(blob, r.p-1)
	if err != nil {
		return err
	}
	r.p = pass + 1
	if o, ok := r.cfg.Verifier.(CrashObserver); ok {
		o.Restored(pass)
	}
	return nil
}

// Result returns the run's result, fully populated only once Step has
// reported done without error.
func (r *Runtime) Result() *Result { return r.res }

// Pass reports the next convergence pass to run (the number of passes
// completed, while in the convergence phase).
func (r *Runtime) Pass() int { return r.p }

// Done reports whether the run has finished (or was stopped).
func (r *Runtime) Done() bool { return r.phase == phaseDone }
