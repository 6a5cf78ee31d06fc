package platform

import (
	"reflect"
	"regexp"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/tailbench"
)

// instrument attaches a fresh ledger and series to a config and returns the
// ledger for inspection (the series track is reachable through cfg.Series).
func instrument(cfg *Config) *obs.Ledger {
	cfg.Ledger = obs.NewLedger(0)
	cfg.Series = obs.NewSeries(0)
	return cfg.Ledger
}

// repromoteConfig is a PageForge world that falls back to software KSM and
// is later re-promoted: a fault storm trips the UE-rate policy, and VM
// spawns and kills keep the scan going until the tracker recovers. On
// img_dnn it degrades at pass 2 and re-promotes at pass 9.
func repromoteConfig() (tailbench.Profile, Config) {
	cfg := fastConfig()
	cfg.ConvergePasses = 12
	cfg.Faults = faults.Config{Seed: 7, TransientPerRead: 0.01, DoubleBitPerRead: 0.0002}
	cfg.Events = []Event{{Pass: 1, Kind: EvFaultStorm, Passes: 2, Boost: 100}}
	for p := 2; p < 12; p++ {
		if p%2 == 0 {
			cfg.Events = append(cfg.Events, Event{Pass: p, Kind: EvVMSpawn})
		} else {
			cfg.Events = append(cfg.Events, Event{Pass: p, Kind: EvVMKill, VM: cfg.VMs + (p-3)/2})
		}
	}
	return fastApp("img_dnn"), cfg
}

// TestProvenanceBitIdentical is the tentpole invariant extended from the
// tracer to the full provenance stack: attaching the merge-lifecycle ledger
// AND the per-pass series must never perturb the simulation, in any world —
// plain engines, the sharded-parallel index, injected faults, an overcommit
// storm, a crash-with-recovery run, and a run re-promoted from the software
// fallback (whose fallback counters must be published with or without a
// series sampling them).
func TestProvenanceBitIdentical(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name  string
		mode  Mode
		setup func() (tailbench.Profile, Config)
	}{
		{"KSM", KSM, func() (tailbench.Profile, Config) { return fastApp("silo"), fastConfig() }},
		{"KSM-sharded", KSM, func() (tailbench.Profile, Config) {
			cfg := fastConfig()
			cfg.ShardBits = 2
			cfg.ShardWorkers = 3
			return fastApp("silo"), cfg
		}},
		{"PageForge", PageForge, func() (tailbench.Profile, Config) { return fastApp("img_dnn"), fastConfig() }},
		{"PageForge-faults", PageForge, func() (tailbench.Profile, Config) {
			cfg := fastConfig()
			cfg.Faults = faults.Config{Seed: 7, TransientPerRead: 0.01, DoubleBitPerRead: 0.002}
			return fastApp("img_dnn"), cfg
		}},
		{"KSM-storm", KSM, func() (tailbench.Profile, Config) { return stormConfig(7) }},
		{"PageForge-crash", PageForge, func() (tailbench.Profile, Config) {
			cfg := crashTestConfig()
			cfg.CheckpointEvery = 2
			crashAt(&cfg, 2)
			return fastApp("img_dnn"), cfg
		}},
		{"PageForge-repromote", PageForge, repromoteConfig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			app, plainCfg := tc.setup()
			plain, err := Run(tc.mode, app, plainCfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "PageForge-repromote" && (plain.DegradedAtPass < 0 || plain.RepromotedAtPass < 0) {
				t.Fatalf("world did not degrade and re-promote: degraded at %d, re-promoted at %d",
					plain.DegradedAtPass, plain.RepromotedAtPass)
			}
			_, cfg := tc.setup()
			ldg := instrument(&cfg)
			instrumented, err := Run(tc.mode, app, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ldg.Len() == 0 {
				t.Fatal("ledger attached but recorded nothing")
			}
			track := cfg.Series.Track(tc.mode.String() + "/" + app.Name)
			if len(track.Points()) == 0 {
				t.Fatal("series attached but sampled nothing")
			}
			if !reflect.DeepEqual(plain, instrumented) {
				t.Fatalf("provenance instrumentation perturbed the run:\n%+v\n%+v", plain, instrumented)
			}
		})
	}
}

// TestCrashRoundTripWithProvenance extends the snapshot round-trip proof to
// the observability state itself: a checkpoint → crash → restore → replay
// run with series and ledger enabled must produce the same Result AND the
// same series points AND the same ledger events (modulo the restored
// markers, which exist precisely to document the recovery) as an
// uninterrupted instrumented run.
func TestCrashRoundTripWithProvenance(t *testing.T) {
	t.Parallel()
	app := fastApp("img_dnn")
	mkCfg := func(crash bool) Config {
		cfg := crashTestConfig()
		if crash {
			cfg.CheckpointEvery = 2
			crashAt(&cfg, 2)
		}
		return cfg
	}
	for _, mode := range []Mode{KSM, PageForge} {
		t.Run(mode.String(), func(t *testing.T) {
			crashCfg := mkCfg(true)
			crashLdg := instrument(&crashCfg)
			crashed, err := Run(mode, app, crashCfg)
			if err != nil {
				t.Fatal(err)
			}
			plainCfg := mkCfg(false)
			plainLdg := instrument(&plainCfg)
			plain, err := Run(mode, app, plainCfg)
			if err != nil {
				t.Fatal(err)
			}

			rep := crashed.Crash
			if rep.Crashes != 1 || rep.Restores != 1 {
				t.Fatalf("crash did not fire: %+v", rep)
			}
			crashed.Crash = CrashReport{}
			plain.Crash = CrashReport{}
			if !reflect.DeepEqual(crashed, plain) {
				t.Fatal("crashed instrumented run diverged from uninterrupted instrumented run")
			}

			trackName := mode.String() + "/" + app.Name
			cp := crashCfg.Series.Track(trackName).Points()
			pp := plainCfg.Series.Track(trackName).Points()
			if len(cp) == 0 || !reflect.DeepEqual(cp, pp) {
				t.Fatalf("series points diverged across the crash (%d vs %d points)", len(cp), len(pp))
			}

			// The ledgers must agree event-for-event once the crashed run's
			// restored markers are dropped; sequence numbers differ past the
			// marker, so compare the payload fields.
			strip := func(evs []obs.LedgerEvent) []obs.LedgerEvent {
				out := make([]obs.LedgerEvent, 0, len(evs))
				for _, e := range evs {
					if e.Kind == obs.LKRestored {
						continue
					}
					e.Seq = 0
					out = append(out, e)
				}
				return out
			}
			ce, pe := crashLdg.Events(), plainLdg.Events()
			if len(ce) != len(pe)+1 {
				t.Fatalf("crashed ledger has %d events, want %d (+1 restored marker)", len(ce), len(pe))
			}
			sc, sp := strip(ce), strip(pe)
			if !reflect.DeepEqual(sc, sp) {
				t.Fatal("ledger events diverged across the crash")
			}
		})
	}
}

// metricName is the registry naming contract every published statistic must
// follow: slash-separated area/noun paths of lowercase snake_case segments
// (bank counters add dotted channel.bank indices).
var metricName = regexp.MustCompile(`^[a-z0-9_]+(/[a-z0-9_.]+)+$`)

// TestMetricNameHygiene walks every name a fully armed run publishes —
// faults, pressure, crash, both provenance layers — and enforces the naming
// contract plus cross-kind uniqueness (a counter, gauge, and histogram may
// never share a name: snapshot diffing and the series sampler key on it).
func TestMetricNameHygiene(t *testing.T) {
	t.Parallel()
	app, cfg := stormConfig(11)
	cfg.Faults = faults.Config{Seed: 3, TransientPerRead: 0.01, DoubleBitPerRead: 0.001}
	cfg.CheckpointEvery = 2
	crashAt(&cfg, 2)
	instrument(&cfg)
	res, err := Run(PageForge, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Metrics
	if snap == nil || len(snap.Counters) == 0 {
		t.Fatal("run published no metrics")
	}
	check := func(kind, name string) {
		if !metricName.MatchString(name) {
			t.Errorf("%s %q violates the area/noun naming contract", kind, name)
		}
	}
	for name := range snap.Counters {
		check("counter", name)
		if _, ok := snap.Gauges[name]; ok {
			t.Errorf("%q is both a counter and a gauge", name)
		}
		if _, ok := snap.Histograms[name]; ok {
			t.Errorf("%q is both a counter and a histogram", name)
		}
	}
	for name := range snap.Gauges {
		check("gauge", name)
		if _, ok := snap.Histograms[name]; ok {
			t.Errorf("%q is both a gauge and a histogram", name)
		}
	}
	for name := range snap.Histograms {
		check("histogram", name)
	}
	// The provenance PR's always-published families must be present.
	for _, name := range []string{"vm/merges", "vm/unmerges", "vm/alloc_stalls"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q missing from an armed run", name)
		}
	}
	if _, ok := snap.Gauges["platform/frames_allocated"]; !ok {
		t.Error("gauge platform/frames_allocated missing from an armed run")
	}
}
