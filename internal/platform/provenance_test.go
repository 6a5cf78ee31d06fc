package platform

import (
	"regexp"
	"testing"

	"repro/internal/faults"
	"repro/internal/tailbench"
)

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
