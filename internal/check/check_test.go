package check

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/tailbench"
	"repro/internal/vm"
	"repro/internal/workload"
)

// smallScenario is a hand-picked fast scenario with every mechanism on:
// duplication, zero pages, churn, and both phases.
func smallScenario() workload.Scenario {
	return workload.Scenario{
		Seed: 42, VMs: 3, PagesPerVM: 60,
		DupFrac: 0.5, ZeroFrac: 0.1, DupCopies: 3, VolatileFrac: 0.2,
		ConvergePasses: 4, MeasureIntervals: 2, PagesToScan: 200,
	}
}

func TestCleanScenarioPassesAllInvariants(t *testing.T) {
	rep, err := RunScenario(smallScenario())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DiffChecked {
		t.Fatal("fault-free converged scenario must run the differential check")
	}
	if rep.Groups == 0 {
		t.Fatal("expected shared clean merge groups")
	}
	for mode, c := range map[string]Counters{"KSM": rep.KSM, "PageForge": rep.PageForge} {
		if c.Intervals == 0 || c.ContentChecks == 0 || c.RefcountChecks == 0 {
			t.Fatalf("%s: checker did no work: %+v", mode, c)
		}
		if c.CompletenessGroups == 0 {
			t.Fatalf("%s: completeness oracle audited no groups", mode)
		}
	}
}

func TestFaultedScenarioPassesInvariants(t *testing.T) {
	sc := smallScenario()
	sc.FaultRate = 0.02
	rep, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DiffChecked {
		t.Fatal("faulted runs must skip the differential check")
	}
}

// TestLiveEventScenarioPassesInvariants runs a schedule with every live
// event — a mid-run spawn, a VM kill, and a phase flip — under full
// invariant checking with the provenance ledger attached: the shadow model
// must absorb the spawned VM's pages, handle the victim's teardown (frames
// freed, refcounts balanced), and skip the cross-engine differential check.
func TestLiveEventScenarioPassesInvariants(t *testing.T) {
	sc := smallScenario()
	sc.LedgerOn = true
	sc.SpawnAtPass = 2
	sc.KillVMAtPass = 3
	sc.KillVM = 1
	sc.PhaseFlipAtPass = 3
	if !sc.HasLiveEvents() {
		t.Fatal("scenario must report live events")
	}
	rep, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DiffChecked {
		t.Fatal("live-event runs must skip the differential check")
	}
	for mode, c := range map[string]Counters{"KSM": rep.KSM, "PageForge": rep.PageForge} {
		if c.ContentChecks == 0 || c.RefcountChecks == 0 {
			t.Fatalf("%s: checker did no work: %+v", mode, c)
		}
	}
}

// TestVerifierIsObservational is the verifier's column of the platform
// equivalence table, kept here because this package imports platform: a
// run audited by a Checker, whose write observer makes seeded writes
// generate their bytes, must be bit-identical to the same run without it.
func TestVerifierIsObservational(t *testing.T) {
	app := *tailbench.ProfileByName("img_dnn")
	app.PagesPerVM = 300
	cfg := platform.DefaultConfig()
	cfg.ConvergePasses, cfg.MeasureIntervals, cfg.PagesToScan = 10, 8, 200
	cfg.Events = []platform.Event{
		{Pass: 1, Kind: platform.EvVMSpawn},
		{Pass: 2, Kind: platform.EvVMKill, VM: 1},
		{Pass: 3, Kind: platform.EvPhaseChange, Frac: 0.4},
	}
	for _, mode := range []platform.Mode{platform.KSM, platform.PageForge} {
		t.Run(mode.String(), func(t *testing.T) {
			bare, err := platform.Run(mode, app, cfg)
			if err != nil {
				t.Fatal(err)
			}
			chk := &Checker{}
			checked := cfg
			checked.Verifier = chk
			verified, err := platform.Run(mode, app, checked)
			if err != nil {
				t.Fatal(err)
			}
			if chk.Counters.Intervals == 0 {
				t.Fatal("the checker audited no interval")
			}
			if !reflect.DeepEqual(verified, bare) {
				t.Fatalf("verification perturbed the run\nverified: %+v\nbare:     %+v", verified, bare)
			}
		})
	}
}

func TestModelTracksWrites(t *testing.T) {
	hv := vm.NewHypervisor(64 * mem.PageSize)
	v := hv.NewVM(4 * mem.PageSize)
	if _, err := v.Write(0, 0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	m := NewModel()
	m.Attach(hv)
	id := v.PageID(0)
	if !m.Clean(id) {
		t.Fatal("snapshot pages start clean")
	}
	if got := m.Expected(id); got[0] != 1 || got[2] != 3 {
		t.Fatalf("snapshot missed initial contents: % x", got[:4])
	}
	if _, err := v.Write(0, 1, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if m.Clean(id) {
		t.Fatal("written page must be dirty")
	}
	if got := m.Expected(id); got[0] != 1 || got[1] != 9 || got[2] != 3 {
		t.Fatalf("shadow missed observed write: % x", got[:4])
	}
}

// tamperContent flips one byte of the first shared frame it sees, writing
// the frame through mem.Phys directly (bypassing the hypervisor write path,
// its CoW protection and its write observer) — the exact class of bug
// invariant 1 exists to catch.
func tamperContent(fired *bool) func(p platform.VerifyPoint) {
	return func(p platform.VerifyPoint) {
		if *fired {
			return
		}
		phys := p.HV.Phys
		for pfn := mem.PFN(0); int(pfn) < phys.TotalFrames(); pfn++ {
			if phys.Allocated(pfn) && len(p.HV.Mappers(pfn)) >= 2 && !phys.IsZero(pfn) {
				phys.WriteAt(pfn, 100, []byte{phys.Page(pfn)[100] ^ 0xFF})
				*fired = true
				return
			}
		}
	}
}

func TestCheckerCatchesContentCorruptionAndShrinks(t *testing.T) {
	failsWith := func(sc workload.Scenario) (bool, error) {
		fired := false
		_, err := RunScenarioOpts(sc, Options{Tamper: tamperContent(&fired)})
		return err != nil && strings.Contains(err.Error(), "invariant 1"), err
	}

	sc := workload.Generate(7)
	sc.FaultRate = 0 // keep probes fast and the failure unambiguous
	caught, err := failsWith(sc)
	if !caught {
		t.Fatalf("injected content corruption not caught as invariant 1 (err=%v)", err)
	}

	shrunk, probes := workload.Shrink(sc, func(s workload.Scenario) bool {
		ok, _ := failsWith(s)
		return ok
	}, 60)
	caught, err = failsWith(shrunk)
	if !caught {
		t.Fatalf("shrunk scenario no longer fails (err=%v)", err)
	}
	if shrunk.VMs > sc.VMs || shrunk.PagesPerVM > sc.PagesPerVM || shrunk.ConvergePasses > sc.ConvergePasses {
		t.Fatalf("shrinker made the scenario bigger: %v -> %v", sc, shrunk)
	}
	if shrunk == sc {
		t.Fatalf("shrinker made no progress in %d probes on %v", probes, sc)
	}
	t.Logf("shrunk %v -> %v in %d probes", sc, shrunk, probes)

	repro := workload.ReproTest(shrunk, err)
	for _, want := range []string{"func TestRepro_", "check.RunScenario", "workload.Scenario{"} {
		if !strings.Contains(repro, want) {
			t.Fatalf("repro test missing %q:\n%s", want, repro)
		}
	}
}

func TestCheckerCatchesRefcountBug(t *testing.T) {
	fired := false
	_, err := RunScenarioOpts(smallScenario(), Options{Tamper: func(p platform.VerifyPoint) {
		if fired {
			return
		}
		phys := p.HV.Phys
		for pfn := mem.PFN(0); int(pfn) < phys.TotalFrames(); pfn++ {
			if phys.Allocated(pfn) {
				phys.IncRef(pfn) // leaked reference, mapped nowhere
				fired = true
				return
			}
		}
	}})
	if err == nil || !strings.Contains(err.Error(), "invariant 2") {
		t.Fatalf("leaked frame reference not caught as invariant 2: %v", err)
	}
}
