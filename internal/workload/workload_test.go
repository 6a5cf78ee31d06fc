package workload

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/platform"
)

func TestGenerateDeterministicAndInRange(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		sc := Generate(seed)
		if sc != Generate(seed) {
			t.Fatalf("seed %d: Generate is not deterministic", seed)
		}
		if sc.VMs < 2 || sc.VMs > 6 {
			t.Fatalf("seed %d: VMs %d out of range", seed, sc.VMs)
		}
		if sc.PagesPerVM < 40 || sc.PagesPerVM > 200 {
			t.Fatalf("seed %d: PagesPerVM %d out of range", seed, sc.PagesPerVM)
		}
		if sc.DupFrac < 0.2 || sc.DupFrac > 0.7 {
			t.Fatalf("seed %d: DupFrac %f out of range", seed, sc.DupFrac)
		}
		if sc.DupFrac+sc.ZeroFrac >= 1 {
			t.Fatalf("seed %d: composition exceeds the image", seed)
		}
		if sc.ConvergePasses < 3 || sc.MeasureIntervals < 1 || sc.PagesToScan < 100 {
			t.Fatalf("seed %d: engine tunables out of range: %+v", seed, sc)
		}
		if sc.FaultRate != 0 && (sc.FaultRate < 1e-4 || sc.FaultRate > 0.1) {
			t.Fatalf("seed %d: FaultRate %g out of range", seed, sc.FaultRate)
		}
		if sc.FaultFree() != (sc.FaultRate == 0) {
			t.Fatalf("seed %d: FaultFree inconsistent", seed)
		}
		if sc.Pressured() != (sc.Overcommit > 1) {
			t.Fatalf("seed %d: Pressured inconsistent", seed)
		}
		if sc.Pressured() {
			if sc.Overcommit < 1.1 || sc.Overcommit > 1.9 {
				t.Fatalf("seed %d: Overcommit %g out of range", seed, sc.Overcommit)
			}
			if sc.BurstPages < 5 || sc.BurstPages > 30 || sc.BurstPasses < 1 || sc.BurstPasses > 3 {
				t.Fatalf("seed %d: burst shape out of range: %+v", seed, sc)
			}
			if sc.ConvergePasses < sc.BurstPasses+4 {
				t.Fatalf("seed %d: storm has no room to start and recover: %+v", seed, sc)
			}
		} else if sc.BurstPages != 0 || sc.BurstPasses != 0 {
			t.Fatalf("seed %d: unpressured scenario carries a burst: %+v", seed, sc)
		}
	}
}

func TestGenerateCoversRegimes(t *testing.T) {
	var faulted, churning, pressured int
	for seed := uint64(0); seed < 200; seed++ {
		sc := Generate(seed)
		if !sc.FaultFree() {
			faulted++
		}
		if sc.VolatileFrac > 0 {
			churning++
		}
		if sc.Pressured() {
			pressured++
		}
	}
	if faulted < 50 || faulted > 150 {
		t.Fatalf("fault regime coverage skewed: %d/200 faulted", faulted)
	}
	if churning < 40 || churning > 140 {
		t.Fatalf("churn regime coverage skewed: %d/200 churning", churning)
	}
	if pressured < 20 || pressured > 90 {
		t.Fatalf("pressure regime coverage skewed: %d/200 pressured", pressured)
	}
}

func TestGenerateDrawsLiveEvents(t *testing.T) {
	var spawns, kills, flips int
	for seed := uint64(0); seed < 300; seed++ {
		sc := Generate(seed)
		if sc.HasLiveEvents() != (sc.SpawnAtPass > 0 || sc.KillVMAtPass > 0 || sc.PhaseFlipAtPass > 0) {
			t.Fatalf("seed %d: HasLiveEvents inconsistent: %+v", seed, sc)
		}
		if sc.SpawnAtPass > 0 {
			spawns++
			if sc.Pressured() {
				t.Fatalf("seed %d: spawn drawn into a pressured scenario (undersized arena): %+v", seed, sc)
			}
			if sc.SpawnAtPass > sc.ConvergePasses {
				t.Fatalf("seed %d: SpawnAtPass %d beyond the run", seed, sc.SpawnAtPass)
			}
		}
		if sc.KillVMAtPass > 0 {
			kills++
			if sc.KillVMAtPass > sc.ConvergePasses {
				t.Fatalf("seed %d: KillVMAtPass %d beyond the run", seed, sc.KillVMAtPass)
			}
			if sc.KillVM < 0 || sc.KillVM >= sc.VMs {
				t.Fatalf("seed %d: KillVM %d is not a built VM", seed, sc.KillVM)
			}
		} else if sc.KillVM != 0 {
			t.Fatalf("seed %d: victim drawn without a kill: %+v", seed, sc)
		}
		if sc.PhaseFlipAtPass > 0 {
			flips++
			if sc.PhaseFlipAtPass > sc.ConvergePasses {
				t.Fatalf("seed %d: PhaseFlipAtPass %d beyond the run", seed, sc.PhaseFlipAtPass)
			}
		}
	}
	if spawns < 30 || spawns > 180 {
		t.Fatalf("spawn regime coverage skewed: %d/300", spawns)
	}
	if kills < 50 || kills > 180 {
		t.Fatalf("kill regime coverage skewed: %d/300", kills)
	}
	if flips < 50 || flips > 180 {
		t.Fatalf("phase-flip regime coverage skewed: %d/300", flips)
	}
}

func TestScenarioConfigRendersEvents(t *testing.T) {
	sc := Generate(3)
	sc.Overcommit, sc.BurstPages, sc.BurstPasses = 0, 0, 0
	sc.SpawnAtPass, sc.KillVMAtPass, sc.KillVM, sc.PhaseFlipAtPass = 2, 3, 1, 4
	want := []platform.Event{
		{Pass: 1, Kind: platform.EvVMSpawn},
		{Pass: 2, Kind: platform.EvVMKill, VM: 1},
		{Pass: 3, Kind: platform.EvPhaseChange, Frac: 0.3},
	}
	if got := sc.Config().Events; !reflect.DeepEqual(got, want) {
		t.Fatalf("events not rendered: got %+v want %+v", got, want)
	}
	sc.SpawnAtPass, sc.KillVMAtPass, sc.KillVM, sc.PhaseFlipAtPass = 0, 0, 0, 0
	if got := sc.Config().Events; len(got) != 0 {
		t.Fatalf("event-free scenario rendered events: %+v", got)
	}
}

func TestScenarioConfigMapsFields(t *testing.T) {
	sc := Generate(3)
	sc.FaultRate = 0.01
	cfg := sc.Config()
	if cfg.VMs != sc.VMs || cfg.Cores != sc.VMs || cfg.Seed != sc.Seed {
		t.Fatalf("deployment shape not mapped: %+v", cfg)
	}
	if cfg.ConvergePasses != sc.ConvergePasses || cfg.MeasureIntervals != sc.MeasureIntervals || cfg.PagesToScan != sc.PagesToScan {
		t.Fatalf("engine tunables not mapped: %+v", cfg)
	}
	if !cfg.Faults.Enabled() {
		t.Fatal("nonzero FaultRate must arm fault injection")
	}
	sc.FaultRate = 0
	if sc.Config().Faults.Enabled() {
		t.Fatal("fault-free scenario must leave injection disarmed")
	}
	p := sc.Profile()
	if p.PagesPerVM != sc.PagesPerVM || p.DupFrac != sc.DupFrac || p.ZeroFrac != sc.ZeroFrac {
		t.Fatalf("profile composition not mapped: %+v", p)
	}

	sc.Overcommit, sc.BurstPages, sc.BurstPasses = 1.5, 20, 2
	pcfg := sc.Config()
	if !pcfg.Pressure.Enabled || pcfg.Pressure.OvercommitRatio != 1.5 {
		t.Fatalf("pressure shape not mapped: %+v", pcfg.Pressure)
	}
	storm := platform.Event{Pass: 1, Kind: platform.EvBalloonStorm, Pages: 20, Passes: 2}
	if len(pcfg.Events) == 0 || pcfg.Events[0] != storm {
		t.Fatalf("storm not scheduled as %+v: %+v", storm, pcfg.Events)
	}
	if bp := sc.Profile().BurstPagesPerVM; bp != 40 {
		t.Fatalf("burst region not sized for the whole storm: %d", bp)
	}
	sc.Overcommit = 0
	if sc.Config().Pressure.Enabled {
		t.Fatal("unpressured scenario must leave the pressure layer disarmed")
	}
}

// TestShrinkMinimizesSyntheticFailure drives the shrinker with a synthetic
// predicate ("fails whenever VMs ≥ 2 and PagesPerVM ≥ 20") and checks it
// reaches the predicate's floor rather than stopping early.
func TestShrinkMinimizesSyntheticFailure(t *testing.T) {
	sc := Generate(11)
	sc.FaultRate = 0.05
	sc.Overcommit, sc.BurstPages, sc.BurstPasses = 1.6, 25, 3
	fails := func(s Scenario) bool { return s.VMs >= 2 && s.PagesPerVM >= 20 }
	if !fails(sc) {
		t.Fatal("starting scenario must fail")
	}
	shrunk, probes := Shrink(sc, fails, 200)
	if !fails(shrunk) {
		t.Fatal("shrinker returned a passing scenario")
	}
	if shrunk.VMs != 2 {
		t.Fatalf("VMs not minimized: %d (%d probes)", shrunk.VMs, probes)
	}
	if shrunk.PagesPerVM > 20 {
		t.Fatalf("PagesPerVM not minimized: %d", shrunk.PagesPerVM)
	}
	if shrunk.FaultRate != 0 || shrunk.VolatileFrac != 0 {
		t.Fatalf("irrelevant mechanisms not removed: %+v", shrunk)
	}
	if shrunk.Overcommit != 0 || shrunk.BurstPages != 0 || shrunk.BurstPasses != 0 {
		t.Fatalf("irrelevant pressure storm not removed: %+v", shrunk)
	}
	if shrunk.ConvergePasses != 2 || shrunk.MeasureIntervals != 0 {
		t.Fatalf("phases not minimized: %+v", shrunk)
	}
}

// TestShrinkReducesPressureStorm pins the pressure-specific moves: when a
// failure needs the overcommit itself, the all-or-nothing mechanism move
// can't fire, but the burst shape must still descend to its floors.
func TestShrinkReducesPressureStorm(t *testing.T) {
	sc := Generate(11)
	sc.Overcommit, sc.BurstPages, sc.BurstPasses = 1.6, 25, 3
	fails := func(s Scenario) bool { return s.Pressured() }
	shrunk, probes := Shrink(sc, fails, 300)
	if !shrunk.Pressured() {
		t.Fatal("shrinker returned a passing scenario")
	}
	if shrunk.BurstPages != 0 || shrunk.BurstPasses != 0 {
		t.Fatalf("burst shape not minimized: %dx%d (%d probes)",
			shrunk.BurstPages, shrunk.BurstPasses, probes)
	}
}

// TestShrinkRemovesLiveEvents pins the live-event moves: when the failure
// does not depend on the event schedule, the shrinker strips it.
func TestShrinkRemovesLiveEvents(t *testing.T) {
	sc := Generate(11)
	sc.SpawnAtPass, sc.KillVMAtPass, sc.KillVM, sc.PhaseFlipAtPass = 1, 2, 1, 3
	shrunk, probes := Shrink(sc, func(s Scenario) bool { return s.VMs >= 2 }, 200)
	if shrunk.HasLiveEvents() || shrunk.KillVM != 0 {
		t.Fatalf("live events not removed: %+v (%d probes)", shrunk, probes)
	}
}

func TestShrinkRespectsProbeBudget(t *testing.T) {
	sc := Generate(5)
	probesSeen := 0
	_, probes := Shrink(sc, func(Scenario) bool { probesSeen++; return true }, 7)
	if probes != 7 || probesSeen != 7 {
		t.Fatalf("probe budget not honored: reported %d, ran %d", probes, probesSeen)
	}
}

func TestReproTestIsPasteable(t *testing.T) {
	sc := Generate(9)
	out := ReproTest(sc, &testErr{})
	for _, want := range []string{
		"// Reproduces: synthetic invariant failure",
		"func TestRepro_9(t *testing.T)",
		"workload.Scenario{Seed:0x9",
		"check.RunScenario(sc)",
		"t.Fatal(err)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("repro test missing %q:\n%s", want, out)
		}
	}
}

type testErr struct{}

func (*testErr) Error() string { return "synthetic invariant failure" }
