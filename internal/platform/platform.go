// Package platform wires the full Table 2 machine: 10 cores whose traffic
// is sampled at the shared L3, the DDR memory system behind a memory
// controller hosting the PageForge module, 10 VMs (one per core)
// running a TailBench application, and the page-deduplication engine of the
// selected configuration. It runs the paper's three configurations —
// Baseline (no merging), KSM (software), PageForge (hardware) — through a
// converge-then-measure protocol and produces every statistic the
// evaluation section reports.
package platform

import (
	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/ksm"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/pageforge"
	"repro/internal/pressure"
	"repro/internal/sim"
	"repro/internal/tailbench"
)

// Mode selects the evaluated configuration.
type Mode int

// The paper's three configurations (§5.3).
const (
	Baseline Mode = iota
	KSM
	PageForge
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case Baseline:
		return "Baseline"
	case KSM:
		return "KSM"
	case PageForge:
		return "PageForge"
	default:
		return "?"
	}
}

// Config assembles the machine and engine parameters.
type Config struct {
	Cores int // 10
	VMs   int // 10, one per core

	// SleepMillis and PagesToScan are the dedup tunables shared by KSM and
	// PageForge (Table 2: 5ms, 400).
	SleepMillis float64
	PagesToScan int

	// ShardBits selects 2^ShardBits content-prefix shards for the KSM
	// stable/unstable trees (0 = single tree pair, classic KSM — the
	// default, bit-identical to pre-sharding builds).
	ShardBits int
	// ShardWorkers is the worker count KSM convergence passes fan out
	// across shards through Scanner.ScanPass; 0 means one worker. Results
	// are bit-identical at any worker count. The measurement phase always
	// scans sequentially (its batches interleave with application traffic
	// in simulated time).
	ShardWorkers int

	KSMCosts ksm.Costs
	Driver   pageforge.DriverConfig
	DRAM     dram.Config

	// ConvergePasses caps the steady-state convergence phase.
	ConvergePasses int
	// MeasureIntervals is the number of 5ms work intervals in the
	// measurement phase.
	MeasureIntervals int
	// ZipfS is the kthread core-placement skew (Table 4's Max column).
	ZipfS float64

	// Faults configures the injected DRAM fault population (RAS). The zero
	// value injects nothing and leaves the machine bit-identical to a
	// fault-free run. When enabled, a patrol scrubber and the
	// PageForge→KSM degradation policy are armed alongside the model.
	Faults faults.Config

	// Pressure arms the memory-pressure resilience layer: overcommitted
	// arena sizing, the stall/balloon reclaim protocol, watermark-driven
	// scan backpressure, and the reversible degradation ladder. The storm
	// that exercises it is an EvBalloonStorm in Events. The zero value
	// (Enabled false) creates nothing and leaves runs bit-identical to
	// pre-pressure builds.
	Pressure pressure.Config

	// CheckpointEvery checkpoints the full simulator state every N
	// convergence passes (0 = boot checkpoint only). The checkpoint/crash
	// machinery is armed when CheckpointEvery > 0 or Events holds an
	// EvCrash. A crashed run restores the newest checkpoint, verifies the
	// recovered dedup index, and replays the lost passes; its Result (minus
	// the Crash report) is bit-identical to the uninterrupted run's. With
	// neither set nothing is created and runs stay bit-identical to
	// pre-crash builds.
	CheckpointEvery int

	// Trace, when non-nil, receives simulation events (batches, merges,
	// intervals, RAS incidents) for Chrome trace_event export. Tracing is
	// purely observational: a traced run produces bit-identical Results to
	// an untraced one. The tracer may be shared by parallel runs; each run
	// registers its own trace process.
	Trace *obs.Tracer

	// Series, when non-nil, receives one sample of the full metric registry
	// at every convergence-pass and measurement-interval boundary — windowed
	// counter deltas plus instantaneous gauges — under a per-run track named
	// "<mode>/<app>". Like Trace it is purely observational: a sampled run
	// produces bit-identical Results to an unsampled one, and the samples
	// live outside Result so the identity stays testable by DeepEqual.
	Series *obs.Series

	// Ledger, when non-nil, records the merge-lifecycle provenance stream:
	// every frame transition (scanned, unstable, stable, merged, CoW-broken,
	// quarantined, ballooned, shed, ...) with a wasted-work cause attached
	// where the transition is a failure. A ledger is per-run, never shared.
	// Purely observational — a ledgered run produces bit-identical Results
	// to an unledgered one.
	Ledger *obs.Ledger

	// Events is the one schedule of pass-boundary disturbances — VM
	// spawn/kill, application phase changes, balloon storms, fault storms,
	// host crashes. Each event applies at the top of its pass, in Pass
	// order (ties keep list order), exactly as if the same event had been
	// Injected into a streaming Runtime before that pass ran; an EvCrash
	// fires at the boundary closing its pass. An event at or past
	// ConvergePasses never applies and is ignored, where Inject rejects
	// it: the workload shrinker lowers ConvergePasses under fixed event
	// passes. Ignored by Baseline (which runs no convergence passes).
	Events []Event

	// Verifier, when non-nil, receives model-based checking callbacks: once
	// at image build (BeginRun) and at every convergence pass and
	// measurement interval (Interval). A failed check aborts the run.
	// Verification is purely observational — a verified run produces
	// bit-identical Results to an unverified one.
	Verifier Verifier

	Seed uint64
}

// DefaultConfig is the paper's setup (Table 2).
func DefaultConfig() Config {
	return Config{
		Cores:            10,
		VMs:              10,
		SleepMillis:      5,
		PagesToScan:      400,
		KSMCosts:         ksm.DefaultCosts(),
		Driver:           pageforge.DefaultDriverConfig(),
		DRAM:             dram.DefaultConfig(),
		ConvergePasses:   25,
		MeasureIntervals: 40,
		ZipfS:            1.2,
		Seed:             1,
	}
}

// Fixed machine parameters of the paper's setup.
const (
	// kthreadShare is the CPU fraction the dedup kthread receives while
	// resident on a core (CFS equal-weight timesharing); kthreadSlice is
	// its scheduler migration granularity in cycles.
	kthreadShare = 0.5
	kthreadSlice = 1_000_000

	// memPeakGBps is the memory system's deliverable bandwidth (2 channels
	// of 1GHz DDR with a 64-bit data path at ~75% efficiency ≈ 24 GB/s),
	// used by the analytical utilization component of the latency model.
	memPeakGBps = 24

	// scrubLinesPerInterval is the patrol scrubber's line budget per dedup
	// pass/interval under injected faults.
	scrubLinesPerInterval = 512

	// measureL3Bytes and measureL3Ways size the shared cache used during
	// the measurement phase. The sampled application/kthread streams are
	// ~3 orders of magnitude thinner than real traffic, so pollution
	// fidelity requires scaling the modeled L3 with them; 2MB against the
	// sampled streams corresponds to the 32MB L3 against full-rate traffic
	// (see DESIGN.md).
	measureL3Bytes = 2 << 20
	measureL3Ways  = 16
)

// IntervalCycles is one dedup work interval in cycles.
func (c Config) IntervalCycles() uint64 { return sim.MillisToCycles(c.SleepMillis) }

// Result carries everything the experiments extract from one run.
type Result struct {
	Mode Mode
	App  tailbench.Profile

	// Footprint is the Figure 7 classification at steady state.
	Footprint tailbench.Footprint
	// Scanner statistics (hash outcomes for Figure 8, merge counts).
	Stats ksm.Stats

	// BurstMean/BurstStd: core cycles the dedup engine steals per interval
	// (drives the queueing model). For PageForge this is the tiny driver
	// overhead; the hardware runs concurrently.
	BurstMean float64
	BurstStd  float64

	// KSMBreakdown attributes the software engine's cycles (Table 4).
	KSMBreakdown ksm.CycleBreakdown

	// L3MissRate is the shared-cache local miss rate during measurement.
	L3MissRate float64
	// AvgDemandLatency is the mean latency of application cache accesses
	// (cycles); the ratio against Baseline dilates service times. The
	// quantiles come from the measurement histogram: tail latency is what
	// the paper's latency experiments are ultimately about, and the mean
	// alone hides the miss tail.
	AvgDemandLatency float64
	DemandLatP50     float64
	DemandLatP95     float64
	DemandLatP99     float64
	DemandLatMax     float64

	// Figure 11 bandwidths. DemandGBps is the applications' DRAM demand
	// (profile input, adjusted by the measured miss-rate ratio); DedupGBps
	// is measured from the engine's byte volume during the mass-merging
	// (most memory-intensive) phase, scaled to the full-size deployment's
	// tree depth; TotalGBps is their sum. SteadyDedupGBps is the engine's
	// bandwidth during the steady-state measurement phase, which feeds the
	// memory-utilization component of the latency model.
	DemandGBps      float64
	DedupGBps       float64
	TotalGBps       float64
	SteadyDedupGBps float64

	// PageForge-only: Scan Table batch processing stats (Table 5) and
	// hardware counters.
	PFBatchMean     float64
	PFBatchStd      float64
	PFBatches       uint64
	PFLinesFetched  uint64
	PFNetworkHits   uint64
	PFDriverCycles  uint64
	MeasuredCycles  uint64
	ConvergedPasses int

	// RAS and resilience. Degraded reports that the run *ended* on the
	// software fallback: the UE-rate policy or the pressure ladder demoted
	// PageForge to software KSM and neither re-armed. DegradedAtPass is the
	// pass of the first demotion (-1: never); RepromotedAtPass is the pass
	// at which the hardware engine was last re-promoted (-1: never).
	Degraded          bool
	DegradedAtPass    int
	RepromotedAtPass  int
	UERate            float64 // smoothed UEs-per-decode estimate at end of run
	ECCCorrected      uint64
	ECCUncorrectable  uint64
	PFLineRetries     uint64
	PFRetriesHealed   uint64
	PFFaultAborts     uint64
	SWFallbacks       uint64
	QuarantinedFrames int
	ScrubLines        uint64
	ScrubCorrected    uint64
	ScrubUEs          uint64

	// Pressure is the resilience layer's end-of-run report (Enabled false
	// when Config.Pressure is off).
	Pressure pressure.Report

	// Crash is the checkpoint/crash/recovery machinery's report (Enabled
	// false when neither an EvCrash nor CheckpointEvery is configured). It is
	// the one Result section excluded from the crash bit-identity contract.
	Crash CrashReport

	// Metrics is the run's full registry snapshot: every counter, gauge,
	// and histogram the simulation layers published, for machine-readable
	// export (-metrics / -json).
	Metrics *obs.Snapshot
}

// Run executes one (mode, application) configuration. It is the batch
// driver over the tick-driven Runtime: build the world, then step every tick
// to completion. Batch Run and a streaming Runtime stepped to the same
// horizon are therefore the same code path, and their Results are
// bit-identical by construction.
func Run(mode Mode, app tailbench.Profile, cfg Config) (*Result, error) {
	r := NewRuntime(mode, app, cfg)
	if err := r.Start(); err != nil {
		return nil, err
	}
	return r.Drain()
}

// rasState bundles the live RAS machinery of one run: the fault model
// attached to the controller, the patrol scrubber, and the UE-rate tracker
// driving the PageForge→KSM degradation policy.
type rasState struct {
	model   *faults.Model
	scrub   *memctrl.Scrubber
	tracker *faults.RateTracker
	mc      *memctrl.Controller
}

// tick runs one patrol-scrub slice starting at now and feeds the
// degradation tracker one observation window from the controller's
// cumulative ECC counters. It returns the cycle the scrub slice finished.
func (r *rasState) tick(now, stamp uint64) uint64 {
	end := r.scrub.Step(now, scrubLinesPerInterval)
	r.tracker.Observe(r.mc.Stats.ECCDecodes, r.mc.Stats.ECCUncorrectable, stamp)
	return end
}

// Latency runs the queueing phase (Figures 9 and 10) for a measured
// configuration: service times are dilated by the measured demand-latency
// ratio against Baseline (cache pollution, memory contention), and the
// dedup engine's measured per-interval core-steal drives the burst
// schedule. minQueries controls statistical quality per VM.
func Latency(app tailbench.Profile, base, system *Result, cfg Config, minQueries int, seed uint64) tailbench.LatencyResult {
	dilation := 1.0
	if base != nil && base.AvgDemandLatency > 0 {
		// Two memory-interference components compose: the sampled cache/DRAM
		// simulation captures pollution (extra misses) and non-preemptible
		// bank/bus residuals, while an analytical M/M/1-style factor captures
		// queueing from raw bandwidth utilization — at full scale the dedup
		// engines add several GB/s to the memory system, which the thinned
		// sampled streams cannot reproduce directly.
		ratio := system.AvgDemandLatency / base.AvgDemandLatency
		if ratio < 1 {
			ratio = 1
		}
		ratio *= memQueueFactor(app, system) / memQueueFactor(app, base)
		dilation = 1 + app.MemStallFrac*(ratio-1)
	}
	sched := tailbench.NoBursts()
	if system.BurstMean > 0 {
		sched = &tailbench.BurstSchedule{
			IntervalCycles: cfg.IntervalCycles(),
			MeanCycles:     system.BurstMean,
			StdCycles:      system.BurstStd,
			ZipfS:          cfg.ZipfS,
			Cores:          cfg.Cores,
			Share:          kthreadShare,
			SliceCycles:    kthreadSlice,
		}
	}
	horizon := tailbench.MeasureCyclesFor(app, minQueries)
	return tailbench.SimulateQueueing(app, cfg.Cores, dilation, sched, horizon, seed)
}

// fullScaleDepthFactor scales dedup traffic volumes measured on the
// scaled-down images (1,600 pages/VM) to the paper's 512MB VMs: the
// per-candidate comparison count grows with the content-tree depth,
// log(131,072·10)/log(1,600·10) ≈ 1.45.
const fullScaleDepthFactor = 1.45

// memQueueFactor is the mean-latency multiplier of an M/M/1-approximated
// memory system at the run's bandwidth utilization.
func memQueueFactor(app tailbench.Profile, r *Result) float64 {
	u := (app.DemandGBps + r.SteadyDedupGBps) / memPeakGBps
	if u > 0.85 {
		u = 0.85
	}
	return 1 / (1 - u)
}
