package pressure

import "fmt"

// State is a rung of the degradation ladder. It generalizes the one-way
// PageForge→KSM trip of faults.Trip into a four-rung, fully reversible
// state machine:
//
//	Healthy → Throttled → KSMFallback → ScanPaused
//
// Each escalation sheds one more capability: Throttled halves the scan
// budget, KSMFallback demotes the hardware engine to the software scanner
// (same algorithm state, like the RAS trip), ScanPaused stops scanning
// entirely. Every rung is reversible: after ClearPasses consecutive
// all-clear observation windows the ladder steps back up one rung.
type State int

// Ladder rungs, ordered by severity.
const (
	Healthy State = iota
	Throttled
	KSMFallback
	ScanPaused
)

// String renders the state.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Throttled:
		return "throttled"
	case KSMFallback:
		return "ksm-fallback"
	case ScanPaused:
		return "scan-paused"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// LadderConfig is the transition policy: per-signal trip/clear thresholds
// (clear < trip gives each signal a hysteresis band) and the re-arm streak
// length.
type LadderConfig struct {
	// UETrip/UEClear bound the smoothed uncorrectable-error rate (the
	// faults.RateTracker estimate, already EWMA-smoothed).
	UETrip  float64
	UEClear float64
	// FailTrip/FailClear bound the alloc-failure rate: the fraction of
	// guest-path frame allocations that entered the stall path, smoothed
	// here with Alpha.
	FailTrip  float64
	FailClear float64
	// LatTrip/LatClear bound the p99 demand-latency ratio over baseline
	// (the controller's EWMA ratio).
	LatTrip  float64
	LatClear float64
	// Alpha is the EWMA weight for the alloc-failure signal.
	Alpha float64
	// ClearPasses is the number of consecutive all-clear windows required
	// per de-escalation rung.
	ClearPasses int
}

// DefaultLadderConfig mirrors the faults.DefaultTrip UE policy and adds
// the allocation and latency signals.
func DefaultLadderConfig() LadderConfig {
	return LadderConfig{
		UETrip: 0.01, UEClear: 0.001,
		FailTrip: 0.02, FailClear: 0.01,
		LatTrip: 2.0, LatClear: 1.25,
		Alpha:       0.6,
		ClearPasses: 2,
	}
}

// Signal is one observation window's health inputs.
type Signal struct {
	UERate   float64 // smoothed UEs per fetch
	FailRate float64 // raw alloc-failure fraction this window
	LatRatio float64 // smoothed p99 over baseline
}

// Transition records one ladder move, stamped with the converge pass (or
// measure interval offset) that drove it. Cause names the signal that
// forced an escalation, or "recovered" for a de-escalation.
type Transition struct {
	Pass  int
	From  State
	To    State
	Cause string
}

// String renders the transition.
func (t Transition) String() string {
	return fmt.Sprintf("pass %d: %s→%s (%s)", t.Pass, t.From, t.To, t.Cause)
}

// Ladder is the degradation state machine. Observe drives it one window at
// a time; it moves at most one rung per window in either direction, so a
// storm's escalation depth and the recovery path are both readable off the
// transition list.
type Ladder struct {
	cfg LadderConfig

	state       State
	failEWMA    float64
	failSeeded  bool
	clearStreak int
	transitions []Transition
}

// NewLadder builds a ladder in the Healthy state.
func NewLadder(cfg LadderConfig) *Ladder {
	if cfg.ClearPasses <= 0 {
		cfg.ClearPasses = DefaultLadderConfig().ClearPasses
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = DefaultLadderConfig().Alpha
	}
	return &Ladder{cfg: cfg}
}

// Observe feeds one window and returns the (possibly changed) state.
// Escalation: any signal above its trip threshold moves one rung down the
// ladder and resets the recovery streak. De-escalation: all signals below
// their clear thresholds for ClearPasses consecutive windows moves one
// rung back up. Windows in a signal's hysteresis band (between clear and
// trip) hold the current rung and reset the streak — partial health is not
// recovery.
func (l *Ladder) Observe(pass int, sig Signal) State {
	if !l.failSeeded {
		l.failEWMA = sig.FailRate
		l.failSeeded = true
	} else {
		l.failEWMA += l.cfg.Alpha * (sig.FailRate - l.failEWMA)
	}

	cause := ""
	switch {
	case l.failEWMA > l.cfg.FailTrip:
		cause = "alloc-fail"
	case sig.UERate > l.cfg.UETrip:
		cause = "ue-rate"
	case sig.LatRatio > l.cfg.LatTrip:
		cause = "latency"
	}
	if cause != "" {
		l.clearStreak = 0
		if l.state < ScanPaused {
			l.move(pass, l.state+1, cause)
		}
		return l.state
	}

	clear := l.failEWMA < l.cfg.FailClear &&
		sig.UERate < l.cfg.UEClear &&
		sig.LatRatio < l.cfg.LatClear
	if !clear {
		l.clearStreak = 0
		return l.state
	}
	if l.state == Healthy {
		return l.state
	}
	l.clearStreak++
	if l.clearStreak >= l.cfg.ClearPasses {
		l.clearStreak = 0
		l.move(pass, l.state-1, "recovered")
	}
	return l.state
}

func (l *Ladder) move(pass int, to State, cause string) {
	l.transitions = append(l.transitions, Transition{Pass: pass, From: l.state, To: to, Cause: cause})
	l.state = to
}

// State reports the current rung.
func (l *Ladder) State() State { return l.state }

// FailEWMA reports the smoothed alloc-failure rate.
func (l *Ladder) FailEWMA() float64 { return l.failEWMA }

// Transitions returns the recorded moves in order.
func (l *Ladder) Transitions() []Transition { return l.transitions }

// Path renders the full trajectory compactly, e.g.
// "healthy→throttled→ksm-fallback→throttled→healthy".
func (l *Ladder) Path() string {
	s := Healthy.String()
	for _, t := range l.transitions {
		s += "→" + t.To.String()
	}
	return s
}

// Report is the pressure layer's end-of-run summary, embedded in
// platform.Result. All fields are plain data: two same-seed runs must
// produce deeply-equal Reports (the acceptance bar for determinism).
type Report struct {
	Enabled bool

	// Transitions is the full ladder trajectory with pass stamps; Final is
	// the rung at end of run; Path is the human-readable trajectory.
	Transitions []Transition
	Final       State
	Path        string
	// Recovered reports a run that left Healthy and returned to it.
	Recovered bool

	// AllocStalls counts guest-path allocation failures that entered the
	// stall/reclaim path; BalloonInflated is guest pages the balloon
	// released from victim VMs; BalloonReclaimed is frames those releases
	// actually freed.
	AllocStalls      uint64
	BalloonInflated  uint64
	BalloonReclaimed uint64

	// ThrottledPoints counts observation windows spent latency-throttled;
	// PausedPasses counts scan passes skipped on the ScanPaused rung;
	// BurstPages is the total balloon-storm pages written.
	ThrottledPoints uint64
	PausedPasses    uint64
	BurstPages      uint64

	// TotalFrames is the (possibly overcommitted) arena size;
	// MinFreeFrames is the low-water mark of the freelist; FinalLevel the
	// watermark level at end of run.
	TotalFrames   int
	MinFreeFrames int
	FinalLevel    Level
}
