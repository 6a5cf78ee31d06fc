package platform

import (
	"fmt"

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
// the refcount ledger). A failed audit is fatal: the restore is a
// deterministic replay of state that was consistent when captured, so a
// retry would fail the same way and the failure can only be a bug.

// crashSnapshotVersion is the worldPayload schema version. Version 2 added
// the live-event stream cursor and the balloon/fault storm-window fields;
// version 3 made the memory image content-addressed (mem.PhysState);
// version 4 dropped the cache-hierarchy counters and the controller's
// in-flight read table; version 5 dropped the KSM zero-frame and smart-scan
// state and the VMs' huge-page regions; version 6 dropped the fault model's
// injection counters; version 7 lists each frame's mappers most recently
// mapped first, the order of the reverse map threaded through the page
// tables; version 8 dropped the DRAM bandwidth windows, the KSM items'
// unstable-insert pass and the VMs' fault counters; version 9 lists only
// the KSM items that hold a hash, without the has-hash flag.
const crashSnapshotVersion = 9

// Recovery cost model (deterministic, charged only to RecoveryCycles):
// restoring a checkpoint and the per-frame/per-byte cost of the recovery
// audit.
const (
	recoveryRestoreCycles    = 250_000
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
	// Always 0: recovery has no retry or fallback rungs. Kept because
	// result digests hash every field.
	RecoveryRetries int
	ColdRebuilds    int
	KSMFallbacks    int
	// RecoveryCycles is the out-of-band recovery latency (restore + audit
	// cost model); StableVerified/BytesVerified summarize the
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
	// The measurement L3 is not captured: it stays empty and its counters
	// zero through convergence, the only phase a checkpoint is taken in.
	MC   memctrl.ControllerState
	DRAM dram.DRAMState

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

// crashState is the per-run crash/checkpoint machinery. The world it
// captures and restores is the Runtime's.
type crashState struct {
	plan  *faults.CrashPlan
	every int           // checkpoint cadence in passes (0 = boot only)
	obs   CrashObserver // may be nil

	boot     []byte // blob captured before the first pass
	bootPass int
	last     []byte // newest periodic checkpoint blob
	lastPass int

	rep CrashReport
}

// newCrashState arms the machinery, crashing the host at the boundaries
// closing crashPasses.
func newCrashState(cfg Config, crashPasses []int) *crashState {
	cs := &crashState{
		plan:  faults.NewCrashPlan(crashPasses),
		every: cfg.CheckpointEvery,
	}
	if o, ok := cfg.Verifier.(CrashObserver); ok {
		cs.obs = o
	}
	cs.rep.Enabled = true
	return cs
}

// capture serializes the whole world at the boundary closing pass p. It is
// a Runtime method (not crashState) so Snapshot can use it without arming
// the crash machinery.
func (r *Runtime) capture(p int) ([]byte, error) {
	phys, err := r.img.HV.Phys.State()
	if err != nil {
		return nil, fmt.Errorf("platform: checkpoint at pass %d: %w", p, err)
	}
	algSt, err := r.alg.State()
	if err != nil {
		return nil, fmt.Errorf("platform: checkpoint at pass %d: %w", p, err)
	}
	ev := r.ev
	w := worldPayload{
		Pass:       p,
		Now:        r.now,
		Clk:        r.clock,
		Candidates: r.candidates,
		PrevFrames: r.prevFrames,
		Phys:       phys,
		HV:         r.img.HV.State(),
		Img:        r.img.State(),
		Alg:        algSt,

		EngineIsSW: r.driver == nil,

		MC:   r.mc.State(),
		DRAM: r.dr.State(),

		DegradedAtPass:   r.degradedAtPass,
		RepromotedAtPass: r.repromotedAtPass,

		EvCursor:       ev.cursor,
		EvBalloonStart: ev.bsStart,
		EvBalloonUntil: ev.bsUntil,
		EvBalloonPages: ev.bsPages,
		EvFaultStart:   ev.fsStart,
		EvFaultUntil:   ev.fsUntil,
		EvFaultBoost:   ev.fsBoost,

		Converged:  r.convergedEarly,
		PassesDone: r.passes,
	}
	if r.hwDriver != nil {
		w.HasDriver = true
		w.Engine = r.hwDriver.HW.State()
		w.Driver = r.hwDriver.State()
	}
	if r.mode == KSM {
		w.Scanner = captureScanner(r.scanner)
	}
	if r.fallback != nil {
		w.FallbackCreated = true
		w.Fallback = captureScanner(r.fallback)
	}
	if r.ras != nil {
		w.HasRAS = true
		w.Faults = r.ras.model.State()
		w.Tracker = r.ras.tracker.State()
		w.Scrub = r.ras.scrub.State()
	}
	if ps := r.ps; ps != nil {
		w.HasPressure = true
		w.Ctl = ps.ctl.State()
		w.Ladder = ps.ladder.CaptureState()
		w.Balloon = ps.balloon.State()
		w.PSStallTicks = ps.stallTicks
		w.PSLastStalls = ps.lastStalls
		w.PSLastAllocs = ps.lastAllocs
		w.PSReport = ps.rep
	}
	if r.track != nil {
		w.HasSeries = true
		w.Series = r.track.State()
	}
	if r.cfg.Ledger.Enabled() {
		w.HasLedger = true
		w.Ledger = r.cfg.Ledger.State()
	}
	return snapshot.Encode(crashSnapshotVersion, w)
}

// restore rewinds the world to a checkpoint blob, in place, and reports the
// pass the blob was captured at (so the runtime's Restore can resume from
// the right boundary; the crash path already knows it). Every object keeps
// its identity, so every closure wired at build time stays valid across a
// restore.
func (r *Runtime) restore(blob []byte, pass int) (int, error) {
	var w worldPayload
	if err := snapshot.Decode(blob, crashSnapshotVersion, &w); err != nil {
		return 0, fmt.Errorf("platform: restoring checkpoint at pass %d: %w", pass, err)
	}
	if err := r.img.HV.Phys.SetState(w.Phys); err != nil {
		return 0, err
	}
	if err := r.img.HV.SetState(w.HV); err != nil {
		return 0, err
	}
	r.img.SetState(w.Img)
	if err := r.alg.SetState(w.Alg); err != nil {
		return 0, err
	}

	if r.hwDriver != nil && w.HasDriver {
		r.hwDriver.HW.SetState(w.Engine)
		r.hwDriver.SetState(w.Driver)
	}
	if r.mode == KSM {
		restoreScanner(r.scanner, w.Scanner)
	}
	// The fallback scanner may exist now but not at the checkpoint (it was
	// created during the replayed window): restoring its zero image resets
	// its counters so the replay re-accumulates them identically.
	if r.fallback == nil && w.FallbackCreated {
		r.fallback = r.newScanner()
	}
	if r.fallback != nil {
		restoreScanner(r.fallback, w.Fallback)
	}
	// Engine selection is world state: rewind which PageForge engine is
	// live (the KSM mode's scanner never swaps).
	if r.mode == PageForge {
		if w.EngineIsSW {
			r.driver, r.scanner = nil, r.fallback
		} else {
			r.driver, r.scanner = r.hwDriver, nil
		}
	}

	r.mc.SetState(w.MC)
	if err := r.dr.SetState(w.DRAM); err != nil {
		return 0, err
	}

	if r.ras != nil && w.HasRAS {
		r.ras.model.SetState(w.Faults)
		r.ras.tracker.SetState(w.Tracker)
		r.ras.scrub.SetState(w.Scrub)
	}
	if ps := r.ps; ps != nil && w.HasPressure {
		ps.ctl.SetState(w.Ctl)
		ps.ladder.SetState(w.Ladder)
		ps.balloon.SetState(w.Balloon)
		ps.stallTicks = w.PSStallTicks
		ps.lastStalls = w.PSLastStalls
		ps.lastAllocs = w.PSLastAllocs
		ps.rep = w.PSReport
	}
	r.degradedAtPass = w.DegradedAtPass
	r.repromotedAtPass = w.RepromotedAtPass
	if r.track != nil && w.HasSeries {
		r.track.SetState(w.Series)
	}
	if r.cfg.Ledger.Enabled() && w.HasLedger {
		r.cfg.Ledger.SetState(w.Ledger)
	}
	ev := r.ev
	ev.cursor = w.EvCursor
	ev.bsStart = w.EvBalloonStart
	ev.bsUntil = w.EvBalloonUntil
	ev.bsPages = w.EvBalloonPages
	ev.fsStart = w.EvFaultStart
	ev.fsUntil = w.EvFaultUntil
	ev.fsBoost = w.EvFaultBoost
	r.convergedEarly = w.Converged
	r.passes = w.PassesDone

	r.now = w.Now
	r.clock = w.Clk
	r.candidates = w.Candidates
	r.prevFrames = w.PrevFrames
	return w.Pass, nil
}

// checkpoint captures the boundary closing pass p and makes it the newest
// restore target.
func (cs *crashState) checkpoint(r *Runtime, p int) error {
	blob, err := r.capture(p)
	if err != nil {
		return err
	}
	if p < 0 {
		cs.boot, cs.bootPass = blob, p
	} else {
		cs.last, cs.lastPass = blob, p
		r.sc.Instant(obs.TIDPlatform, "crash", "checkpoint", r.now, "pass", uint64(p))
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
func (cs *crashState) boundary(r *Runtime, p int) (resume int, restored bool, err error) {
	if cs.every > 0 && (p+1)%cs.every == 0 {
		if err := cs.checkpoint(r, p); err != nil {
			return 0, false, err
		}
	}
	if cs.plan.FireAt(p) {
		resume, err = cs.crashAt(r, p)
		if err != nil {
			return 0, false, err
		}
		return resume, true, nil
	}
	return 0, false, nil
}

// crashAt kills the host at the boundary closing pass p and recovers from
// the newest checkpoint (the boot checkpoint if no periodic one was taken
// yet). It returns the pass the world was rewound to.
func (cs *crashState) crashAt(r *Runtime, p int) (int, error) {
	cs.rep.Crashes++
	r.sc.Instant(obs.TIDPlatform, "crash", "host_crash", r.now, "pass", uint64(p))
	mergesAtCrash := r.img.HV.Merges

	blob, restoredPass := cs.last, cs.lastPass
	if blob == nil {
		blob, restoredPass = cs.boot, cs.bootPass
	}
	// Restore, then audit the recovered dedup index; both charge only
	// RecoveryCycles. Either failing is fatal: a blob that fails to decode or
	// re-apply means the harness is corrupt, and an index that fails its
	// audit is a genuine corruption bug.
	if _, err := r.restore(blob, restoredPass); err != nil {
		return 0, err
	}
	cs.rep.RecoveryCycles += recoveryRestoreCycles
	stats, err := r.alg.VerifyRecovered()
	cs.rep.StableVerified += stats.StableNodes
	cs.rep.BytesVerified += stats.BytesVerified
	cs.rep.RecoveryCycles += uint64(stats.FramesAudited)*recoveryAuditFrameCycles +
		stats.BytesVerified*recoveryVerifyByteCycles
	if err != nil {
		return 0, fmt.Errorf("platform: recovery verification at pass %d: %w", restoredPass, err)
	}

	cs.rep.Restores++
	cs.rep.ReplayedPasses += p - restoredPass
	cs.rep.RemergedPages += mergesAtCrash - r.img.HV.Merges
	// Mark the rewind in the provenance stream: replayed passes re-append
	// their events on top of the restored ring, and the marker lets ledger
	// consumers (and crashed-vs-uninterrupted comparisons) find the seam.
	// Arg is the restored-to pass + 1, so the boot checkpoint (-1) encodes
	// as 0 in an unsigned field.
	r.cfg.Ledger.Append(obs.LedgerEvent{Kind: obs.LKRestored, VM: -1,
		PFN: obs.LedgerNoPFN, Arg: uint64(restoredPass + 1)})
	if cs.obs != nil {
		cs.obs.Restored(restoredPass)
	}
	r.sc.Instant(obs.TIDPlatform, "crash", "restored", r.now, "pass", uint64(p))
	return restoredPass, nil
}
