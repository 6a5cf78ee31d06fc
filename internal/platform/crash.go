package platform

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/pageforge"
	"repro/internal/pressure"
	"repro/internal/snapshot"
	"repro/internal/tailbench"
	"repro/internal/vm"
)

// Crash tolerance. A checkpoint captures the ENTIRE simulated world at a
// convergence-pass boundary — arena, page tables, rmap, dedup index
// structure, engine counters, DRAM bank state, RAS and pressure policy
// state, RNG streams, and the runtime's own clocks — through the versioned
// snapshot codec. A host crash throws the live world away and restores the
// newest checkpoint in place; the runtime then replays the lost passes. Because the restore is bit-exact and every source of
// nondeterminism is part of the image, the replay reproduces exactly the
// work the crash destroyed: a crashed-and-recovered run finishes with a
// Result deeply equal to the uninterrupted run's (minus the Crash report
// itself). Recovery costs are accounted out-of-band in RecoveryCycles so
// they cannot perturb that identity.
//
// Before a restored index is trusted, ksm.VerifyRecovered audits it against
// the restored memory image (structure, hint-then-verify content audit, and
// the refcount ledger). A failed verification retries with exponential
// backoff, then falls back to the boot checkpoint (cold rebuild), and if
// even that cannot be verified the run permanently demotes to the software
// scanner (KSM-only) — the same degradation rung the pressure ladder uses.

// crashSnapshotVersion is the worldPayload schema version. Version 2 added
// the live-event stream cursor and the balloon/fault storm-window fields;
// version 3 made the memory image content-addressed (mem.PhysState).
const crashSnapshotVersion = 3

// Recovery cost model (deterministic, charged only to RecoveryCycles):
// restoring a checkpoint, one backoff quantum (doubled per retry), and the
// per-frame/per-byte cost of the recovery audit.
const (
	maxRecoveryRetries       = 3
	recoveryRestoreCycles    = 250_000
	recoveryBackoffCycles    = 100_000
	recoveryAuditFrameCycles = 40
	recoveryVerifyByteCycles = 2
)

// CrashObserver is the optional checkpoint/restore callback pair a Verifier
// may implement (internal/check does): Checkpoint fires after a checkpoint
// is captured at the given pass (-1 = boot), Restored after a recovery
// rewound the world to that checkpoint's state. A verifier that carries its
// own shadow state must rewind it in Restored or every later audit compares
// against the wrong reference.
type CrashObserver interface {
	Checkpoint(pass int)
	Restored(pass int)
}

// CrashReport summarizes the crash/checkpoint machinery's work during one
// run. It is excluded from the bit-identity contract: zero it before
// comparing a crashed run's Result against an uninterrupted one.
type CrashReport struct {
	Enabled bool
	// Crashes fired, checkpoints captured (replayed boundaries re-capture
	// their checkpoints, so this counts captures, not distinct passes), and
	// effective restores (one per crash).
	Crashes     int
	Checkpoints int
	Restores    int
	// ReplayedPasses is the total convergence passes re-run after restores;
	// RemergedPages the merges the crashes destroyed and replay re-did.
	ReplayedPasses int
	RemergedPages  uint64
	// RecoveryRetries counts failed recovery attempts that were retried;
	// ColdRebuilds counts fallbacks to the boot checkpoint; KSMFallbacks
	// counts terminal demotions to the software scanner.
	RecoveryRetries int
	ColdRebuilds    int
	KSMFallbacks    int
	// RecoveryCycles is the out-of-band recovery latency (restore + backoff
	// + audit cost model); StableVerified/BytesVerified summarize the
	// recovery audits' work.
	RecoveryCycles uint64
	StableVerified int
	BytesVerified  uint64
}

// scanEngineImage is the software scanner's cumulative cost state (the
// algorithm underneath is captured separately).
type scanEngineImage struct {
	Cycles       ksm.CycleBreakdown
	BytesTouched uint64
	DRAMBytes    uint64
}

func captureScanner(s *ksm.Scanner) scanEngineImage {
	return scanEngineImage{Cycles: s.Cycles, BytesTouched: s.BytesTouched, DRAMBytes: s.DRAMBytes}
}

func restoreScanner(s *ksm.Scanner, im scanEngineImage) {
	s.Cycles = im.Cycles
	s.BytesTouched = im.BytesTouched
	s.DRAMBytes = im.DRAMBytes
}

// worldPayload is the full checkpoint image. Plain data only — no maps
// (gob's map iteration order would break encode-determinism); every
// subsystem serializes its maps as sorted slices.
type worldPayload struct {
	Pass int // convergence pass the boundary closed (-1 = boot)

	// Convergence-loop locals.
	Now        uint64
	Clk        uint64
	Candidates uint64
	PrevFrames int

	// Memory, virtualization, workload image, dedup index.
	Phys mem.PhysState
	HV   vm.HypervisorState
	Img  tailbench.ImageState
	Alg  ksm.AlgorithmState

	// Engines. EngineIsSW records which engine was live (the demote/
	// re-promote swaps are part of the world); the hardware driver and the
	// fallback scanner are captured whenever they exist.
	EngineIsSW      bool
	HasDriver       bool
	Engine          pageforge.EngineState
	Driver          pageforge.DriverState
	Scanner         scanEngineImage // KSM-mode scanner
	FallbackCreated bool
	Fallback        scanEngineImage // PageForge-mode software fallback

	// Memory system.
	MC   memctrl.ControllerState
	DRAM dram.DRAMState
	// Cache-hierarchy statistics (the caches themselves are empty during
	// convergence — application traffic only runs in the measurement phase —
	// so the counters are the hierarchy's only mutable state here).
	HierL3Access  []uint64
	HierL3Miss    []uint64
	HierWB        uint64
	HierProbes    uint64
	HierProbeHits uint64

	// RAS (fault model, UE-rate tracker, patrol scrubber).
	HasRAS  bool
	Faults  faults.ModelState
	Tracker faults.TrackerState
	Scrub   memctrl.ScrubberState

	// Pressure (controller, ladder, balloon, window cursors, report).
	HasPressure  bool
	Ctl          pressure.ControllerState
	Ladder       pressure.LadderState
	Balloon      vm.BalloonState
	PSStallTicks uint64
	PSLastStalls uint64
	PSLastAllocs uint64
	PSReport     pressure.Report

	// Engine-selection history.
	DegradedAtPass   int
	RepromotedAtPass int

	// Observability artifacts. The per-pass series track and the provenance
	// ledger are part of the world: replayed passes re-sample and re-append,
	// so the restore must rewind them or the replay would duplicate entries.
	HasSeries bool
	Series    obs.SeriesTrackState
	HasLedger bool
	Ledger    obs.LedgerState

	// Live-event stream: how many scheduled events have been applied, and
	// the storm windows the applied events opened. The windows are constant
	// once applied, but a snapshot restored into a *fresh* runtime (whose
	// events were never applied) needs them to re-derive the fault boost and
	// balloon action for replayed passes.
	EvCursor       int
	EvBalloonStart int
	EvBalloonUntil int
	EvBalloonPages int
	EvFaultStart   int
	EvFaultUntil   int
	EvFaultBoost   float64

	// Convergence verdict as of the captured boundary. Crash checkpoints are
	// always taken before the verdict (false), but the runtime's Snapshot can
	// capture a world whose last pass converged — a fresh runtime restoring
	// that blob must go straight to measurement, not replay a bonus pass.
	Converged  bool
	PassesDone int
}

// crashEnv binds the crash machinery to one run's live objects, including
// pointers into the Runtime's fields so a restore can rewind them in place (the objects keep their identity — every closure wired at build
// time stays valid across a restore).
type crashEnv struct {
	mode Mode
	img  *tailbench.Image
	alg  *ksm.Algorithm
	hier *cache.Hierarchy
	dr   *dram.DRAM
	mc   *memctrl.Controller
	ras  *rasState
	ps   *pressureState
	es   *engineState
	sc   obs.Scope

	hwDriver   *pageforge.Driver
	ksmScanner *ksm.Scanner
	track      *obs.SeriesTrack // per-run series track; may be nil
	ledger     *obs.Ledger      // provenance ledger; may be nil

	scanner      **ksm.Scanner
	driver       **pageforge.Driver
	fallback     **ksm.Scanner
	makeFallback func() *ksm.Scanner

	ev *eventState // live-event stream; may be nil (no runtime armed)

	now        *uint64
	clk        *uint64
	candidates *uint64
	prevFrames *int
	converged  *bool // the early-convergence verdict; may be nil
	passes     *int  // convergence passes recorded for the result; may be nil
}

// crashState is the per-run crash/checkpoint machinery.
type crashState struct {
	plan     *faults.CrashPlan
	every    int           // checkpoint cadence in passes (0 = boot only)
	failures int           // injected recovery failures remaining (test hook)
	obs      CrashObserver // may be nil
	env      *crashEnv

	boot     []byte // blob captured before the first pass
	bootPass int
	last     []byte // newest periodic checkpoint blob
	lastPass int

	// forcedSW pins the software engine after recovery verification
	// exhausted every fallback; Runtime.stepConverge ORs it into wantSW.
	forcedSW bool

	rep CrashReport
}

// newCrashState arms the machinery over env, whose pointers Runtime.Start
// binds to the Runtime's fields before the first pass, crashing the host at
// the boundaries closing crashPasses.
func newCrashState(cfg Config, crashPasses []int, env *crashEnv) *crashState {
	cs := &crashState{
		plan:     faults.NewCrashPlan(crashPasses),
		every:    cfg.CheckpointEvery,
		failures: cfg.RecoveryFailures,
		env:      env,
	}
	if o, ok := cfg.Verifier.(CrashObserver); ok {
		cs.obs = o
	}
	cs.rep.Enabled = true
	return cs
}

// capture serializes the whole world at the boundary closing pass p. It is
// a crashEnv method (not crashState) so the runtime's Snapshot can reuse it
// without arming the crash machinery.
func (env *crashEnv) capture(p int) ([]byte, error) {
	phys, err := env.img.HV.Phys.State()
	if err != nil {
		return nil, fmt.Errorf("platform: checkpoint at pass %d: %w", p, err)
	}
	algSt, err := env.alg.State()
	if err != nil {
		return nil, fmt.Errorf("platform: checkpoint at pass %d: %w", p, err)
	}
	w := worldPayload{
		Pass:       p,
		Now:        *env.now,
		Clk:        *env.clk,
		Candidates: *env.candidates,
		PrevFrames: *env.prevFrames,
		Phys:       phys,
		HV:         env.img.HV.State(),
		Img:        env.img.State(),
		Alg:        algSt,

		EngineIsSW: *env.driver == nil,

		MC:            env.mc.State(),
		DRAM:          env.dr.State(),
		HierL3Access:  append([]uint64(nil), env.hier.L3AccessBySource[:]...),
		HierL3Miss:    append([]uint64(nil), env.hier.L3MissBySource[:]...),
		HierWB:        env.hier.Writebacks,
		HierProbes:    env.hier.NetworkProbes,
		HierProbeHits: env.hier.NetworkProbeHits,

		DegradedAtPass:   env.es.degradedAtPass,
		RepromotedAtPass: env.es.repromotedAtPass,
	}
	if env.hwDriver != nil {
		w.HasDriver = true
		w.Engine = env.hwDriver.HW.State()
		w.Driver = env.hwDriver.State()
	}
	if env.ksmScanner != nil {
		w.Scanner = captureScanner(env.ksmScanner)
	}
	if *env.fallback != nil {
		w.FallbackCreated = true
		w.Fallback = captureScanner(*env.fallback)
	}
	if env.ras != nil {
		w.HasRAS = true
		w.Faults = env.ras.model.State()
		w.Tracker = env.ras.tracker.State()
		w.Scrub = env.ras.scrub.State()
	}
	if env.ps != nil {
		w.HasPressure = true
		w.Ctl = env.ps.ctl.State()
		w.Ladder = env.ps.ladder.CaptureState()
		w.Balloon = env.ps.balloon.State()
		w.PSStallTicks = env.ps.stallTicks
		w.PSLastStalls = env.ps.lastStalls
		w.PSLastAllocs = env.ps.lastAllocs
		w.PSReport = env.ps.rep
	}
	if env.track != nil {
		w.HasSeries = true
		w.Series = env.track.State()
	}
	if env.ledger.Enabled() {
		w.HasLedger = true
		w.Ledger = env.ledger.State()
	}
	if env.ev != nil {
		w.EvCursor = env.ev.cursor
		w.EvBalloonStart = env.ev.bsStart
		w.EvBalloonUntil = env.ev.bsUntil
		w.EvBalloonPages = env.ev.bsPages
		w.EvFaultStart = env.ev.fsStart
		w.EvFaultUntil = env.ev.fsUntil
		w.EvFaultBoost = env.ev.fsBoost
	}
	if env.converged != nil {
		w.Converged = *env.converged
		w.PassesDone = *env.passes
	}
	return snapshot.Encode(crashSnapshotVersion, w)
}

// restore rewinds the world to a checkpoint blob, in place, and reports the
// pass the blob was captured at (so the runtime's Restore can resume from
// the right boundary; the crash path already knows it).
func (env *crashEnv) restore(blob []byte, pass int) (int, error) {
	var w worldPayload
	if err := snapshot.Decode(blob, crashSnapshotVersion, &w); err != nil {
		return 0, fmt.Errorf("platform: restoring checkpoint at pass %d: %w", pass, err)
	}
	if err := env.img.HV.Phys.SetState(w.Phys); err != nil {
		return 0, err
	}
	if err := env.img.HV.SetState(w.HV); err != nil {
		return 0, err
	}
	env.img.SetState(w.Img)
	if err := env.alg.SetState(w.Alg); err != nil {
		return 0, err
	}

	if env.hwDriver != nil && w.HasDriver {
		env.hwDriver.HW.SetState(w.Engine)
		env.hwDriver.SetState(w.Driver)
	}
	if env.ksmScanner != nil {
		restoreScanner(env.ksmScanner, w.Scanner)
	}
	// The fallback scanner may exist now but not at the checkpoint (it was
	// created during the replayed window): restoring its zero image resets
	// its counters so the replay re-accumulates them identically.
	if *env.fallback == nil && w.FallbackCreated {
		*env.fallback = env.makeFallback()
	}
	if *env.fallback != nil {
		restoreScanner(*env.fallback, w.Fallback)
	}
	// Engine selection is world state: rewind which engine is live.
	if w.EngineIsSW {
		*env.driver = nil
		if env.ksmScanner != nil {
			*env.scanner = env.ksmScanner
		} else {
			*env.scanner = *env.fallback
		}
	} else {
		*env.driver = env.hwDriver
		*env.scanner = nil
	}

	env.mc.SetState(w.MC)
	if err := env.dr.SetState(w.DRAM); err != nil {
		return 0, err
	}
	copy(env.hier.L3AccessBySource[:], w.HierL3Access)
	copy(env.hier.L3MissBySource[:], w.HierL3Miss)
	env.hier.Writebacks = w.HierWB
	env.hier.NetworkProbes = w.HierProbes
	env.hier.NetworkProbeHits = w.HierProbeHits

	if env.ras != nil && w.HasRAS {
		env.ras.model.SetState(w.Faults)
		env.ras.tracker.SetState(w.Tracker)
		env.ras.scrub.SetState(w.Scrub)
	}
	if env.ps != nil && w.HasPressure {
		env.ps.ctl.SetState(w.Ctl)
		env.ps.ladder.SetState(w.Ladder)
		env.ps.balloon.SetState(w.Balloon)
		env.ps.stallTicks = w.PSStallTicks
		env.ps.lastStalls = w.PSLastStalls
		env.ps.lastAllocs = w.PSLastAllocs
		env.ps.rep = w.PSReport
	}
	env.es.degradedAtPass = w.DegradedAtPass
	env.es.repromotedAtPass = w.RepromotedAtPass
	if env.track != nil && w.HasSeries {
		env.track.SetState(w.Series)
	}
	if env.ledger.Enabled() && w.HasLedger {
		env.ledger.SetState(w.Ledger)
	}
	if env.ev != nil {
		env.ev.cursor = w.EvCursor
		env.ev.bsStart = w.EvBalloonStart
		env.ev.bsUntil = w.EvBalloonUntil
		env.ev.bsPages = w.EvBalloonPages
		env.ev.fsStart = w.EvFaultStart
		env.ev.fsUntil = w.EvFaultUntil
		env.ev.fsBoost = w.EvFaultBoost
	}
	if env.converged != nil {
		*env.converged = w.Converged
		*env.passes = w.PassesDone
	}

	*env.now = w.Now
	*env.clk = w.Clk
	*env.candidates = w.Candidates
	*env.prevFrames = w.PrevFrames
	return w.Pass, nil
}

// checkpoint captures the boundary closing pass p and makes it the newest
// restore target.
func (cs *crashState) checkpoint(p int) error {
	blob, err := cs.env.capture(p)
	if err != nil {
		return err
	}
	if p < 0 {
		cs.boot, cs.bootPass = blob, p
	} else {
		cs.last, cs.lastPass = blob, p
		cs.env.sc.Instant(obs.TIDPlatform, "crash", "checkpoint", *cs.env.now, "pass", uint64(p))
	}
	cs.rep.Checkpoints++
	if cs.obs != nil {
		cs.obs.Checkpoint(p)
	}
	return nil
}

// boundary closes convergence pass p: take the periodic checkpoint if one
// is due, then fire the crash plan. It returns the pass to resume from and
// whether a restore happened (the loop then replays from resume+1).
func (cs *crashState) boundary(p int) (resume int, restored bool, err error) {
	if cs.every > 0 && (p+1)%cs.every == 0 {
		if err := cs.checkpoint(p); err != nil {
			return 0, false, err
		}
	}
	if cs.plan.FireAt(p) {
		resume, err = cs.crashAt(p)
		if err != nil {
			return 0, false, err
		}
		return resume, true, nil
	}
	return 0, false, nil
}

// attemptChain runs the bounded restore-verify-retry loop against one
// checkpoint blob. It reports whether a restore was verified; a non-nil
// error is a real (non-injected) failure and aborts the run. Every exit
// leaves the world restored to the blob.
func (cs *crashState) attemptChain(blob []byte, pass int) (bool, error) {
	for attempt := 0; attempt <= maxRecoveryRetries; attempt++ {
		if attempt > 0 {
			cs.rep.RecoveryRetries++
			cs.rep.RecoveryCycles += recoveryBackoffCycles << uint(attempt-1)
		}
		if _, err := cs.env.restore(blob, pass); err != nil {
			// Our own checkpoint failed to decode or re-apply: the harness
			// is corrupt, not the simulated state. Fatal.
			return false, err
		}
		cs.rep.RecoveryCycles += recoveryRestoreCycles
		if cs.failures > 0 {
			// Injected recovery fault (Config.RecoveryFailures test hook):
			// this attempt is declared failed before verification.
			cs.failures--
			continue
		}
		stats, err := cs.env.alg.VerifyRecovered()
		cs.rep.StableVerified += stats.StableNodes
		cs.rep.BytesVerified += stats.BytesVerified
		cs.rep.RecoveryCycles += uint64(stats.FramesAudited)*recoveryAuditFrameCycles +
			stats.BytesVerified*recoveryVerifyByteCycles
		if err != nil {
			// A restored-from-verified-state index that fails its audit is a
			// genuine corruption bug; retrying a deterministic audit cannot
			// help. Surface it.
			return false, fmt.Errorf("platform: recovery verification at pass %d: %w", pass, err)
		}
		return true, nil
	}
	return false, nil
}

// crashAt kills the host at the boundary closing pass p and drives the
// recovery ladder: newest checkpoint with bounded retries, cold rebuild
// from the boot checkpoint, then permanent software fallback. It returns
// the pass the world was rewound to.
func (cs *crashState) crashAt(p int) (int, error) {
	env := cs.env
	cs.rep.Crashes++
	env.sc.Instant(obs.TIDPlatform, "crash", "host_crash", *env.now, "pass", uint64(p))
	mergesAtCrash := env.img.HV.Merges

	primary, primaryPass := cs.last, cs.lastPass
	hasPrimary := primary != nil
	if !hasPrimary {
		primary, primaryPass = cs.boot, cs.bootPass
	}
	restoredPass := primaryPass
	ok, err := cs.attemptChain(primary, primaryPass)
	if err != nil {
		return 0, err
	}
	if !ok && hasPrimary {
		// Retries exhausted on the newest checkpoint: cold rebuild from boot.
		cs.rep.ColdRebuilds++
		restoredPass = cs.bootPass
		if ok, err = cs.attemptChain(cs.boot, cs.bootPass); err != nil {
			return 0, err
		}
	}
	if !ok {
		// Even the boot image could not be verified (injected faults all the
		// way down). The world is left restored to the last attempt's blob;
		// stop trusting the hardware path and pin the software scanner.
		cs.forcedSW = true
		cs.rep.KSMFallbacks++
		if env.ps != nil {
			env.ps.ladder.Force(p, pressure.KSMFallback, "crash-recovery")
		}
		env.sc.Instant(obs.TIDPlatform, "crash", "ksm_fallback", *env.now, "pass", uint64(p))
	}

	cs.rep.Restores++
	cs.rep.ReplayedPasses += p - restoredPass
	cs.rep.RemergedPages += mergesAtCrash - env.img.HV.Merges
	// Mark the rewind in the provenance stream: replayed passes re-append
	// their events on top of the restored ring, and the marker lets ledger
	// consumers (and crashed-vs-uninterrupted comparisons) find the seam.
	// Arg is the restored-to pass + 1, so the boot checkpoint (-1) encodes
	// as 0 in an unsigned field.
	env.ledger.Append(obs.LedgerEvent{Kind: obs.LKRestored, VM: -1,
		PFN: obs.LedgerNoPFN, Arg: uint64(restoredPass + 1)})
	if cs.obs != nil {
		cs.obs.Restored(restoredPass)
	}
	env.sc.Instant(obs.TIDPlatform, "crash", "restored", *env.now, "pass", uint64(p))
	return restoredPass, nil
}
