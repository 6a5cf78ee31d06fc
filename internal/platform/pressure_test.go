package platform

import (
	"reflect"
	"testing"

	"repro/internal/pressure"
	"repro/internal/tailbench"
)

// stormConfig builds a compact overcommitted deployment: demand (resident
// image + burst region) is ~1.6x the arena, and a balloon storm runs for
// converge passes 1-3. The image is deliberately merge-poor (low dup/zero
// fractions) with churn, so scanning cannot instantly reclaim the burst —
// demand has to outpace merging for the ladder to see sustained pressure.
func stormConfig(seed uint64) (tailbench.Profile, Config) {
	app := *tailbench.ProfileByName("silo")
	app.PagesPerVM = 100
	app.BurstPagesPerVM = 90
	app.DupFrac = 0.15
	app.ZeroFrac = 0.05
	app.VolatileFrac = 0.3
	cfg := DefaultConfig()
	cfg.VMs = 4
	cfg.Cores = 4
	cfg.ConvergePasses = 14
	cfg.MeasureIntervals = 4
	cfg.Seed = seed
	pc := pressure.DefaultConfig()
	pc.Enabled = true
	pc.OvercommitRatio = 1.6
	cfg.Pressure = pc
	cfg.Events = []Event{{Pass: 1, Kind: EvBalloonStorm, Pages: 30, Passes: 3}}
	return app, cfg
}

// TestPressureStormSurvival runs the overcommit storm through both dedup
// engines: the run must complete without error, actually exercise the
// stall/balloon path, walk down the degradation ladder, and recover to
// Healthy after the storm ends.
func TestPressureStormSurvival(t *testing.T) {
	for _, mode := range []Mode{KSM, PageForge} {
		t.Run(mode.String(), func(t *testing.T) {
			app, cfg := stormConfig(7)
			res, err := Run(mode, app, cfg)
			if err != nil {
				t.Fatalf("storm run failed: %v", err)
			}
			rep := res.Pressure
			if !rep.Enabled {
				t.Fatal("pressure report not enabled")
			}
			if rep.BurstPages == 0 {
				t.Fatal("storm wrote no burst pages")
			}
			if rep.AllocStalls == 0 {
				t.Fatal("overcommitted storm never stalled an allocation")
			}
			if rep.BalloonReclaimed == 0 {
				t.Fatal("balloon reclaimed nothing")
			}
			if rep.BalloonInflated != rep.BalloonReclaimed {
				t.Fatalf("inflated %d != reclaimed %d: balloon took a shared page",
					rep.BalloonInflated, rep.BalloonReclaimed)
			}
			if len(rep.Transitions) == 0 {
				t.Fatal("ladder never moved under a 1.6x overcommit storm")
			}
			if rep.Final != pressure.Healthy || !rep.Recovered {
				t.Fatalf("did not recover: final=%v path=%s", rep.Final, rep.Path)
			}
			if rep.MinFreeFrames >= res.Footprint.FramesAllocated {
				t.Fatalf("implausible low-water mark %d", rep.MinFreeFrames)
			}
			// The pressure counters must be visible in the metrics snapshot.
			if c := res.Metrics.Counters["pressure/alloc_stalls"]; c != rep.AllocStalls {
				t.Fatalf("pressure/alloc_stalls counter = %d, want %d", c, rep.AllocStalls)
			}
			if _, ok := res.Metrics.Gauges["pressure/level"]; !ok {
				t.Fatal("pressure/level gauge missing")
			}
		})
	}
}

// TestPressureStormParallelScan runs the storm with sharded parallel scan
// passes: balloon reclaim and the deferred-free windows must not interact
// (the balloon only runs between passes). Run under -race in CI.
func TestPressureStormParallelScan(t *testing.T) {
	app, cfg := stormConfig(11)
	cfg.ShardBits = 2
	cfg.ShardWorkers = 3
	res, err := Run(KSM, app, cfg)
	if err != nil {
		t.Fatalf("parallel storm run failed: %v", err)
	}
	if res.Pressure.AllocStalls == 0 || res.Pressure.Final != pressure.Healthy {
		t.Fatalf("parallel storm: stalls=%d final=%v", res.Pressure.AllocStalls, res.Pressure.Final)
	}
}

// TestPressureDeterminism: two same-seed storm runs must produce deeply
// equal Results — transitions, stall counts, and all measured statistics
// included.
func TestPressureDeterminism(t *testing.T) {
	run := func() *Result {
		app, cfg := stormConfig(3)
		res, err := Run(PageForge, app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Pressure, b.Pressure) {
		t.Fatalf("pressure reports diverged:\n%+v\n%+v", a.Pressure, b.Pressure)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed storm results diverged outside the pressure report")
	}
}

// TestPressureOffBitIdentical: an explicit zero Pressure config must leave
// the run bit-identical to one that never heard of the layer (the armed
// code paths are all gated).
func TestPressureOffBitIdentical(t *testing.T) {
	app := *tailbench.ProfileByName("silo")
	app.PagesPerVM = 120
	cfg := DefaultConfig()
	cfg.VMs = 4
	cfg.Cores = 4
	cfg.ConvergePasses = 8
	cfg.MeasureIntervals = 4
	cfg.Seed = 5
	base, err := Run(KSM, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Pressure = pressure.Config{} // explicit zero: off
	again, err := Run(KSM, app, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, again) {
		t.Fatal("zero pressure config perturbed the run")
	}
}
