package pressure

import (
	"reflect"
	"testing"
)

// TestWatermarkHysteresis drives the controller across the thresholds and
// pins that escalation is immediate while de-escalation needs the
// hysteresis gap cleared.
func TestWatermarkHysteresis(t *testing.T) {
	cfg := DefaultConfig() // Low .25 / Min .10 / Critical .03, hysteresis .04
	c := NewController(cfg)
	steps := []struct {
		free int // out of 100
		want Level
	}{
		{50, LevelNone},
		{24, LevelLow},     // crossed low going down: immediate
		{9, LevelMin},      // crossed min
		{2, LevelCritical}, // crossed critical
		{4, LevelCritical}, // above critical but inside the +4% gap: holds
		{8, LevelMin},      // 8% clears 3%+4%: drops to the raw level for 8% free
		{12, LevelMin},     // above min but inside gap (10%+4%): holds
		{15, LevelLow},     // 15% clears 14%: drops to low's band
		{26, LevelLow},     // above low but inside gap (25%+4%): holds
		{30, LevelNone},    // clear of 29%: fully recovered
		{1, LevelCritical}, // re-escalation skips intermediate rungs
		// De-escalation is not streak-based (the ladder handles dwell
		// time): a single clearly-healthy reading drops the level.
		{99, LevelNone},
	}
	for i, s := range steps {
		if got := c.ObserveFree(s.free, 100); got != s.want {
			t.Fatalf("step %d (free=%d): level = %v, want %v", i, s.free, got, s.want)
		}
	}
}

// TestLatencyThrottleHysteresis pins the latency backpressure: trip above
// LatTrip, clear below LatClear, and suspension at critical pressure.
func TestLatencyThrottleHysteresis(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LatAlpha = 1 // raw samples drive the ratio directly
	c := NewController(cfg)
	c.ObserveLatency(100) // baseline
	if c.Throttled() {
		t.Fatal("throttled at baseline")
	}
	c.ObserveLatency(140) // ratio 1.4 < 1.5: no trip
	if c.Throttled() {
		t.Fatal("tripped below LatTrip")
	}
	c.ObserveLatency(160) // 1.6 > 1.5: trip
	if !c.Throttled() {
		t.Fatal("did not trip above LatTrip")
	}
	c.ObserveLatency(130) // 1.3: inside band, holds
	if !c.Throttled() {
		t.Fatal("cleared inside the hysteresis band")
	}
	c.ObserveLatency(110) // 1.1 < 1.15: clears
	if c.Throttled() {
		t.Fatal("did not clear below LatClear")
	}

	// At critical pressure the throttle is suspended: reclaim outranks tail
	// latency when the next allocation would fail.
	c.ObserveFree(1, 100)
	c.ObserveLatency(300)
	if c.Throttled() {
		t.Fatal("throttled at critical pressure")
	}
	c.ObserveFree(90, 100) // pressure clears...
	c.ObserveLatency(300)  // ...and the same latency now trips
	if !c.Throttled() {
		t.Fatal("throttle stayed suspended after pressure cleared")
	}
}

// TestScanScaling pins the budget output in each controller state.
func TestScanScaling(t *testing.T) {
	cfg := DefaultConfig() // boost 2x, shed 0.5x
	c := NewController(cfg)
	if got := c.ScanBudget(400); got != 400 {
		t.Fatalf("healthy budget = %d", got)
	}
	c.ObserveFree(5, 100) // min pressure
	if got := c.ScanBudget(400); got != 800 {
		t.Fatalf("boosted budget = %d, want 800", got)
	}
	// Latency throttling overrides the boost.
	c.ObserveLatency(100)
	c.ObserveLatency(100_000)
	if !c.Throttled() {
		t.Fatal("not throttled")
	}
	if got := c.ScanBudget(400); got != 200 {
		t.Fatalf("shed budget = %d, want 200", got)
	}
	if got := c.ScanBudget(1); got != 1 {
		t.Fatal("shed budget dropped below 1")
	}
}

// TestLadderTableDriven scripts full down-and-back trajectories through
// the ladder and pins every transition.
func TestLadderTableDriven(t *testing.T) {
	cfg := LadderConfig{
		UETrip: 0.01, UEClear: 0.001,
		FailTrip: 0.02, FailClear: 0.01,
		LatTrip: 2.0, LatClear: 1.25,
		Alpha:       1, // raw fail rates drive the signal directly
		ClearPasses: 2,
	}
	healthy := Signal{LatRatio: 1}
	failing := Signal{FailRate: 0.5, LatRatio: 1}
	cases := []struct {
		name    string
		signals []Signal
		want    []Transition
		final   State
	}{
		{
			name:    "storm escalates one rung per window to the floor",
			signals: []Signal{failing, failing, failing, failing, failing},
			want: []Transition{
				{0, Healthy, Throttled, "alloc-fail"},
				{1, Throttled, KSMFallback, "alloc-fail"},
				{2, KSMFallback, ScanPaused, "alloc-fail"},
				// rungs exhausted: further tripped windows hold ScanPaused
			},
			final: ScanPaused,
		},
		{
			name: "recovery climbs back one rung per ClearPasses streak",
			signals: []Signal{
				failing, failing, failing, // down to ScanPaused
				healthy, healthy, // streak 2 → KSMFallback
				healthy, healthy, // → Throttled
				healthy, healthy, // → Healthy
			},
			want: []Transition{
				{0, Healthy, Throttled, "alloc-fail"},
				{1, Throttled, KSMFallback, "alloc-fail"},
				{2, KSMFallback, ScanPaused, "alloc-fail"},
				{4, ScanPaused, KSMFallback, "recovered"},
				{6, KSMFallback, Throttled, "recovered"},
				{8, Throttled, Healthy, "recovered"},
			},
			final: Healthy,
		},
		{
			name: "hysteresis band holds the rung and resets the streak",
			signals: []Signal{
				failing,                        // → Throttled
				healthy,                        // streak 1
				{FailRate: 0.015, LatRatio: 1}, // between clear and trip: hold, reset
				healthy, healthy,               // fresh streak 2 → Healthy
			},
			want: []Transition{
				{0, Healthy, Throttled, "alloc-fail"},
				{4, Throttled, Healthy, "recovered"},
			},
			final: Healthy,
		},
		{
			name: "signal priority names the worst cause",
			signals: []Signal{
				{UERate: 0.5, LatRatio: 1},              // ue-rate
				{LatRatio: 5},                           // latency
				{FailRate: 0.5, UERate: 1, LatRatio: 9}, // alloc-fail wins
			},
			want: []Transition{
				{0, Healthy, Throttled, "ue-rate"},
				{1, Throttled, KSMFallback, "latency"},
				{2, KSMFallback, ScanPaused, "alloc-fail"},
			},
			final: ScanPaused,
		},
		{
			name:    "healthy run records nothing",
			signals: []Signal{healthy, healthy, healthy},
			want:    nil,
			final:   Healthy,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLadder(cfg)
			for p, sig := range tc.signals {
				l.Observe(p, sig)
			}
			if l.State() != tc.final {
				t.Fatalf("final state = %v, want %v", l.State(), tc.final)
			}
			if !reflect.DeepEqual(l.Transitions(), tc.want) {
				t.Fatalf("transitions = %v, want %v", l.Transitions(), tc.want)
			}
		})
	}
}

// TestLadderPath pins the trajectory rendering.
func TestLadderPath(t *testing.T) {
	l := NewLadder(LadderConfig{FailTrip: 0.02, FailClear: 0.01, Alpha: 1, ClearPasses: 1,
		UETrip: 1, UEClear: 0.5, LatTrip: 10, LatClear: 5})
	if l.Path() != "healthy" {
		t.Fatalf("idle path = %q", l.Path())
	}
	l.Observe(0, Signal{FailRate: 1})
	l.Observe(1, Signal{})
	if l.Path() != "healthy→throttled→healthy" {
		t.Fatalf("path = %q", l.Path())
	}
}

// TestLadderDeterminism: identical observation sequences produce deeply
// equal transition lists.
func TestLadderDeterminism(t *testing.T) {
	run := func() []Transition {
		l := NewLadder(DefaultLadderConfig())
		sigs := []Signal{
			{FailRate: 0.4, LatRatio: 1}, {FailRate: 0.3, LatRatio: 1.1},
			{LatRatio: 1}, {LatRatio: 1}, {LatRatio: 1}, {LatRatio: 1},
			{LatRatio: 1}, {LatRatio: 1}, {LatRatio: 1}, {LatRatio: 1},
		}
		for p, s := range sigs {
			l.Observe(p, s)
		}
		return l.Transitions()
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("same observations produced different transitions")
	}
}
