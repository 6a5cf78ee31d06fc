package platform

import (
	"repro/internal/obs"
	"repro/internal/pressure"
	"repro/internal/tailbench"
	"repro/internal/vm"
)

// pressureState bundles the live memory-pressure resilience machinery of
// one run: the watermark/latency controller, the degradation ladder, and
// the balloon device. It installs the hypervisor's Reclaim hook, so every
// guest-path allocation that finds the arena exhausted stalls (simulated
// backoff) and balloon-reclaims instead of failing outright. Everything it
// does is deterministic: policy state advances only on simulation
// observations, never on wall-clock or randomness, so same-seed runs
// produce deeply-equal pressure.Reports.
type pressureState struct {
	cfg     pressure.Config
	ctl     *pressure.Controller
	ladder  *pressure.Ladder
	balloon *vm.Balloon
	img     *tailbench.Image
	ras     *rasState // UE-rate signal source; may be nil
	sc      obs.Scope

	// stallTicks accumulates the simulated backoff cycles charged by the
	// reclaim hook since the last takeStallTicks; the converge/measure loops
	// fold it into their clocks at pass boundaries.
	stallTicks uint64

	// inReclaim is set while the balloon sweeps guests, so the hypervisor's
	// eviction seam can label those releases as balloon reclaims rather than
	// plain teardown (the provenance ledger's ballooned/evicted split).
	inReclaim bool

	// last* are the previous observation window's cumulative counters, for
	// per-window alloc-failure rates.
	lastStalls uint64
	lastAllocs uint64

	rep pressure.Report
}

// newPressureState arms the resilience layer over a freshly built image and
// installs the stall/balloon reclaim hook.
func newPressureState(cfg pressure.Config, img *tailbench.Image, ras *rasState, sc obs.Scope) *pressureState {
	ps := &pressureState{
		cfg:     cfg,
		ctl:     pressure.NewController(cfg),
		ladder:  pressure.NewLadder(cfg.Ladder),
		balloon: vm.NewBalloon(img.HV),
		img:     img,
		ras:     ras,
		sc:      sc,
	}
	ps.rep.Enabled = true
	ps.rep.MinFreeFrames = img.HV.Phys.FreeFrames()
	img.HV.Reclaim = ps.reclaimHook
	return ps
}

// reclaimHook implements the stall-and-retry protocol consulted by the
// hypervisor on guest-path arena exhaustion: charge one backoff quantum of
// simulated time, balloon-reclaim a batch of frames, and retry. It gives up
// after MaxStallRetries attempts, or immediately when the balloon finds
// nothing to take (with no concurrency, an identical retry cannot succeed)
// — bounded retries are the layer's no-deadlock guarantee.
func (ps *pressureState) reclaimHook(attempt int) bool {
	if attempt > ps.cfg.MaxStallRetries {
		return false
	}
	ps.stallTicks += ps.cfg.StallCycles
	ps.inReclaim = true
	freed := ps.balloon.Reclaim(ps.cfg.BalloonBatch)
	ps.inReclaim = false
	return freed > 0
}

// takeStallTicks drains the accumulated stall backoff for the caller to
// fold into its simulated clock.
func (ps *pressureState) takeStallTicks() uint64 {
	t := ps.stallTicks
	ps.stallTicks = 0
	return t
}

// ueRate reports the RAS tracker's smoothed UE rate (0 without a fault
// model).
func (ps *pressureState) ueRate() float64 {
	if ps.ras == nil {
		return 0
	}
	return ps.ras.tracker.Rate()
}

// quiescent reports whether converge pass p is past the balloon-storm
// window closing at stormUntil and the ladder is back to Healthy — the gate
// for converge's early exit (a run must not declare steady state while
// degraded or mid-storm).
func (ps *pressureState) quiescent(p, stormUntil int) bool {
	return p >= stormUntil && ps.ladder.State() == pressure.Healthy
}

// observe closes one observation window (a converge pass or a measurement
// interval): refresh the watermark level, proactively balloon at critical
// pressure, and feed the degradation ladder one Signal. Transitions are
// traced as instants.
func (ps *pressureState) observe(p int, now uint64) {
	hv := ps.img.HV
	free, total := hv.Phys.FreeFrames(), hv.Phys.TotalFrames()
	if free < ps.rep.MinFreeFrames {
		ps.rep.MinFreeFrames = free
	}
	ps.ctl.ObserveFree(free, total)
	if ps.ctl.Level() == pressure.LevelCritical {
		// Below the critical watermark the next demand allocation is about
		// to stall: reclaim up to the min watermark before it does.
		if want := int(ps.cfg.Watermarks.Min*float64(total)) - free; want > 0 {
			ps.inReclaim = true
			freed := ps.balloon.Reclaim(want)
			ps.inReclaim = false
			if freed > 0 {
				ps.ctl.ObserveFree(hv.Phys.FreeFrames(), total)
				ps.sc.Instant(obs.TIDPlatform, "pressure", "balloon", now, "frames", uint64(freed))
			}
		}
	}

	dStalls := hv.AllocStalls - ps.lastStalls
	dAllocs := hv.Phys.Allocs - ps.lastAllocs
	ps.lastStalls, ps.lastAllocs = hv.AllocStalls, hv.Phys.Allocs
	failRate := 0.0
	if dStalls+dAllocs > 0 {
		failRate = float64(dStalls) / float64(dStalls+dAllocs)
	}

	from := ps.ladder.State()
	to := ps.ladder.Observe(p, pressure.Signal{
		UERate:   ps.ueRate(),
		FailRate: failRate,
		LatRatio: ps.ctl.LatRatio(),
	})
	if to != from {
		ps.sc.Instant(obs.TIDPlatform, "pressure", "ladder_"+to.String(), now, "pass", uint64(p))
	}
}

// observeInterval is the measurement-phase window: feed the demand-path p99
// into the latency backpressure first, then close the window as usual.
func (ps *pressureState) observeInterval(p int, now uint64, p99 float64) {
	ps.ctl.ObserveLatency(p99)
	ps.observe(p, now)
}

// paused reports whether the ladder has scanning stopped entirely.
func (ps *pressureState) paused() bool {
	return ps.ladder.State() == pressure.ScanPaused
}

// finalize snapshots the end-of-run report for Result.Pressure.
func (ps *pressureState) finalize() pressure.Report {
	rep := ps.rep
	rep.AllocStalls = ps.img.HV.AllocStalls
	rep.BalloonInflated = ps.balloon.Inflated
	rep.BalloonReclaimed = ps.balloon.Reclaimed
	rep.ThrottledPoints = ps.ctl.Throttles
	rep.Transitions = ps.ladder.Transitions()
	rep.Final = ps.ladder.State()
	rep.Path = ps.ladder.Path()
	rep.Recovered = len(rep.Transitions) > 0 && rep.Final == pressure.Healthy
	rep.TotalFrames = ps.img.HV.Phys.TotalFrames()
	rep.FinalLevel = ps.ctl.Level()
	return rep
}
