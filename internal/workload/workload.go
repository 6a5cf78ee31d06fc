// Package workload generates randomized, fully deterministic merge
// scenarios for model-based verification: a Scenario is a compact value
// (seed + deployment shape + engine tunables + fault rate) that maps to one
// platform run. Equal Scenarios produce bit-identical runs, which is what
// makes a failing scenario reproducible and shrinkable.
package workload

import (
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/pressure"
	"repro/internal/sim"
	"repro/internal/tailbench"
)

// Scenario is one randomized verification case. All fields are plain data
// so a scenario can be printed with %#v into a ready-to-paste repro test.
type Scenario struct {
	// Seed drives image contents, churn, measurement sampling, and the
	// fault schedule.
	Seed uint64

	// Deployment shape.
	VMs        int
	PagesPerVM int

	// Page-content composition (see tailbench.BuildImage).
	DupFrac      float64
	ZeroFrac     float64
	DupCopies    float64
	VolatileFrac float64

	// Engine tunables.
	ConvergePasses   int
	MeasureIntervals int
	PagesToScan      int

	// Dedup-index sharding: 2^ShardBits content shards, and the worker
	// count for parallel convergence passes (0/0 = classic sequential KSM).
	// Sharded-parallel runs must stay bit-identical to sequential ones, so
	// the generator draws these freely.
	ShardBits    int
	ShardWorkers int

	// FaultRate is the uncorrectable-upset probability per line read
	// (0 = fault-free; also scales correctable transients and stuck words,
	// mirroring the RAS experiment's population).
	FaultRate float64

	// Memory-pressure shape (0/0/0 = pressure layer off). Overcommit > 1
	// sizes the arena below guest demand and arms the stall/balloon/ladder
	// machinery; a balloon storm from pass 1 writes BurstPages fresh pages
	// per VM per pass for BurstPasses passes.
	Overcommit  float64
	BurstPages  int
	BurstPasses int

	// Crash shape (0/0/0 = crash layer off). CheckpointEvery checkpoints
	// the world every N convergence passes; CrashPassA/B are 1-based crash
	// passes (0 = none) — recovery is bit-exact, so crashed scenarios stay
	// in the differential equivalence check. Scalars only: the shrinker
	// compares scenarios with ==.
	CheckpointEvery int
	CrashPassA      int
	CrashPassB      int

	// LedgerOn attaches a merge-lifecycle provenance ledger to each
	// verification run; the checker then replays the ledger's mapping-moving
	// events and cross-checks the implied final page locations against the
	// hypervisor's page tables (see check.AuditLedger).
	LedgerOn bool

	// Live-event schedule (0 = none; passes are 1-based like CrashPassA/B).
	// The scenario streams these, like its storm and crashes, through
	// platform.Config.Events: a VM spawned mid-run, a live VM killed
	// mid-run, and an application phase flip. Scalars only, same
	// shrinker-== discipline as the crash shape.
	SpawnAtPass     int
	KillVMAtPass    int
	KillVM          int // victim ID when KillVMAtPass > 0
	PhaseFlipAtPass int
}

// Generate draws a random scenario from the given seed. The distribution
// deliberately over-weights stressful corners: high duplication (deep
// trees, many merges), nonzero churn (CoW breaks between passes), and a
// fat-tailed fault rate.
func Generate(seed uint64) Scenario {
	rng := sim.NewRNG(seed ^ 0x5EEDF00D)
	sc := Scenario{
		Seed:       seed,
		VMs:        2 + rng.Intn(5),    // 2..6
		PagesPerVM: 40 + rng.Intn(161), // 40..200
		DupFrac:    0.2 + 0.5*rng.Float64(),
		ZeroFrac:   0.25 * rng.Float64(),
		DupCopies:  float64(2 + rng.Intn(5)), // 2..6

		ConvergePasses:   3 + rng.Intn(6), // 3..8
		MeasureIntervals: 1 + rng.Intn(4), // 1..4
		PagesToScan:      100 + rng.Intn(301),
	}
	if rng.Bool(0.4) {
		sc.VolatileFrac = 0.3 * rng.Float64()
	}
	if rng.Bool(0.5) {
		sc.ShardBits = 1 + rng.Intn(3)    // 2..8 shards
		sc.ShardWorkers = 1 + rng.Intn(4) // 1..4 workers
	}
	if rng.Bool(0.5) {
		// Log-uniform over [1e-4, 1e-1]: most draws are rare-fault regimes,
		// a few are storms.
		sc.FaultRate = math.Pow(10, -4+3*rng.Float64())
	}
	// Pressure draws come last so pre-pressure fields keep their same-seed
	// values (adding draws earlier would silently reshuffle every archived
	// repro scenario).
	if rng.Bool(0.25) {
		sc.Overcommit = 1.1 + 0.8*rng.Float64() // 1.1..1.9
		sc.BurstPages = 5 + rng.Intn(26)        // 5..30 per VM per pass
		sc.BurstPasses = 1 + rng.Intn(3)        // 1..3
		if sc.ConvergePasses < sc.BurstPasses+4 {
			// The storm needs room to start (pass 1), run, and recover.
			sc.ConvergePasses = sc.BurstPasses + 4
		}
	}
	// Crash draws come after the pressure block for the same reason the
	// pressure block comes last: same-seed scenarios keep their pre-crash
	// field values.
	if rng.Bool(0.25) {
		sc.CheckpointEvery = 1 + rng.Intn(3) // 1..3
		sc.CrashPassA = 1 + rng.Intn(sc.ConvergePasses)
		if rng.Bool(0.3) {
			sc.CrashPassB = 1 + rng.Intn(sc.ConvergePasses)
		}
	}
	// The ledger draw comes after the crash block, same append-only
	// discipline: every earlier field keeps its same-seed value.
	sc.LedgerOn = rng.Bool(0.5)
	// Live-event draws come last (append-only discipline again). A spawn
	// allocates a whole image on the demand path, so pressured scenarios —
	// whose arena is deliberately undersized — skip it; kills and phase
	// flips only free or rewrite existing pages and are always safe.
	if !sc.Pressured() && rng.Bool(0.35) {
		sc.SpawnAtPass = 1 + rng.Intn(sc.ConvergePasses)
	}
	if rng.Bool(0.35) {
		sc.KillVMAtPass = 1 + rng.Intn(sc.ConvergePasses)
		sc.KillVM = rng.Intn(sc.VMs)
	}
	if rng.Bool(0.35) {
		sc.PhaseFlipAtPass = 1 + rng.Intn(sc.ConvergePasses)
	}
	return sc
}

// Pressured reports whether the scenario arms the memory-pressure layer.
// Pressured runs balloon-release pages at engine-dependent times, so their
// merge sets are not comparable across modes (the differential equivalence
// and completeness checks are skipped; the per-pass invariants still hold).
func (s Scenario) Pressured() bool { return s.Overcommit > 1 }

// FaultFree reports whether the scenario injects no DRAM faults, which is
// the precondition for the differential KSM ≡ PageForge equivalence check.
func (s Scenario) FaultFree() bool { return s.FaultRate == 0 }

// HasLiveEvents reports whether the scenario schedules mid-run topology or
// phase events. Such runs change the mergeable population at event-relative
// times, so their merge sets are not comparable across engines (the
// differential check is skipped; per-pass invariants still hold, including
// through VM teardown).
func (s Scenario) HasLiveEvents() bool {
	return s.SpawnAtPass > 0 || s.KillVMAtPass > 0 || s.PhaseFlipAtPass > 0
}

// DiffComparable reports whether the scenario's clean merge sets are
// comparable across engines — fault-free, unpressured, no live events, and
// enough passes for the hash gate's deferred first sighting to converge.
// This is the precondition for the KSM ≡ PageForge differential check.
func (s Scenario) DiffComparable() bool {
	return s.FaultFree() && !s.Pressured() && !s.HasLiveEvents() && s.ConvergePasses >= 2
}

// Profile renders the scenario as a small TailBench-style application. The
// service-model numbers are fixed: verification exercises merge semantics,
// not the latency model.
func (s Scenario) Profile() tailbench.Profile {
	return tailbench.Profile{
		Name:              fmt.Sprintf("verify-%x", s.Seed),
		QPS:               500,
		MeanServiceCycles: 1e6,
		ServiceCV:         0.8,
		MemStallFrac:      0.4,
		LinesPerQuery:     120,
		BaselineL3Miss:    0.3,
		DemandGBps:        2,
		ZeroFrac:          s.ZeroFrac,
		DupFrac:           s.DupFrac,
		DupCopies:         s.DupCopies,
		PagesPerVM:        s.PagesPerVM,
		VolatileFrac:      s.VolatileFrac,
		BurstPagesPerVM:   s.BurstPages * s.BurstPasses,
	}
}

// Config renders the scenario as a platform configuration. The machine
// parameters stay at their defaults; only the scenario's shape, engine
// tunables, seed, and fault population are overridden.
func (s Scenario) Config() platform.Config {
	cfg := platform.DefaultConfig()
	cfg.VMs = s.VMs
	cfg.Cores = s.VMs
	cfg.ConvergePasses = s.ConvergePasses
	cfg.MeasureIntervals = s.MeasureIntervals
	cfg.PagesToScan = s.PagesToScan
	cfg.ShardBits = s.ShardBits
	cfg.ShardWorkers = s.ShardWorkers
	cfg.Seed = s.Seed
	if s.FaultRate > 0 {
		// Same population shape as the RAS experiment: correctable
		// transients an order of magnitude denser than UEs, plus a few
		// permanently-stuck words at high rates.
		frames := s.VMs*s.PagesPerVM*2 + 1024
		cfg.Faults = faults.Config{
			Seed:             s.Seed ^ 0x4A5C4A5,
			TransientPerRead: math.Min(1, 10*s.FaultRate),
			DoubleBitPerRead: s.FaultRate,
			StuckUEWords:     int(s.FaultRate * 400),
			Frames:           frames,
		}
	}
	if s.Pressured() {
		pc := pressure.DefaultConfig()
		pc.Enabled = true
		pc.OvercommitRatio = s.Overcommit
		cfg.Pressure = pc
		cfg.Events = append(cfg.Events, platform.Event{Pass: 1, Kind: platform.EvBalloonStorm,
			Pages: s.BurstPages, Passes: s.BurstPasses})
	}
	cfg.CheckpointEvery = s.CheckpointEvery
	if s.CrashPassA > 0 {
		cfg.Events = append(cfg.Events, platform.Event{Pass: s.CrashPassA - 1, Kind: platform.EvCrash})
	}
	if s.CrashPassB > 0 {
		cfg.Events = append(cfg.Events, platform.Event{Pass: s.CrashPassB - 1, Kind: platform.EvCrash})
	}
	if s.LedgerOn {
		// A ledger is per-run state, so every Config() call mints a fresh one
		// (Scenario itself stays plain scalars for the shrinker's ==).
		cfg.Ledger = obs.NewLedger(0)
	}
	if s.SpawnAtPass > 0 {
		cfg.Events = append(cfg.Events, platform.Event{Pass: s.SpawnAtPass - 1, Kind: platform.EvVMSpawn})
	}
	if s.KillVMAtPass > 0 {
		cfg.Events = append(cfg.Events, platform.Event{Pass: s.KillVMAtPass - 1, Kind: platform.EvVMKill, VM: s.KillVM})
	}
	if s.PhaseFlipAtPass > 0 {
		cfg.Events = append(cfg.Events, platform.Event{Pass: s.PhaseFlipAtPass - 1, Kind: platform.EvPhaseChange, Frac: 0.3})
	}
	return cfg
}

// String renders the scenario compactly for progress and failure reports.
func (s Scenario) String() string {
	return fmt.Sprintf("seed=%#x vms=%d pages=%d dup=%.2f×%.0f zero=%.2f volatile=%.2f passes=%d intervals=%d scan=%d shards=%d workers=%d fault=%.2g overcommit=%.2f burst=%dx%d ckpt=%d crash=%d/%d ledger=%t spawn@%d kill=%d@%d flip@%d",
		s.Seed, s.VMs, s.PagesPerVM, s.DupFrac, s.DupCopies, s.ZeroFrac,
		s.VolatileFrac, s.ConvergePasses, s.MeasureIntervals, s.PagesToScan,
		1<<s.ShardBits, s.ShardWorkers, s.FaultRate, s.Overcommit, s.BurstPages, s.BurstPasses,
		s.CheckpointEvery, s.CrashPassA, s.CrashPassB, s.LedgerOn,
		s.SpawnAtPass, s.KillVM, s.KillVMAtPass, s.PhaseFlipAtPass)
}
