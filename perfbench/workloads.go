package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/platform"
	"repro/internal/tailbench"
)

// workload is one benchmark input set: the (mode, app, config) triple handed
// to platform.NewRuntime, and the liveness check that proves a finished run
// still exercised the layers the workload was built to stress.
type workload struct {
	name string
	mode platform.Mode
	app  tailbench.Profile
	cfg  platform.Config
	// minQueries sizes the queueing phase run by platform.Latency.
	minQueries int
	// live inspects a finished run's counters and its count of convergence
	// ticks; an error fails the operation.
	live func(c counters, convergeTicks int) error
}

// workloadNames lists the workloads in the order BENCHMARK.json declares them.
var workloadNames = []string{"pf-merge", "ksm-churn", "baseline-traffic"}

// newWorkload builds the named workload, at full size (10 VMs x 1,600 pages,
// the paper's setup), for one seed. The seed reaches the simulator only
// through Config.Seed.
func newWorkload(name string, seed uint64) (workload, error) {
	cfg := platform.DefaultConfig()
	cfg.Seed = seed
	w := workload{name: name, cfg: cfg, minQueries: 20000}
	switch name {
	case "pf-merge":
		w.mode, w.app = platform.PageForge, profile("img_dnn")
		w.live = func(c counters, _ int) error {
			if c["pageforge/lines_fetched"] == 0 {
				return fmt.Errorf("pageforge fetched no lines")
			}
			return nil
		}
	case "ksm-churn":
		w.mode, w.app = platform.KSM, profile("masstree")
		w.app.BurstPagesPerVM = 800
		w.cfg.ShardBits = 4
		w.cfg.ShardWorkers = min(2, runtime.GOMAXPROCS(0))
		w.cfg.Events = churnEvents(w.cfg.ConvergePasses, 40)
		w.live = func(c counters, convergeTicks int) error {
			if n := c["memctrl/pf_fetches"]; n != 0 {
				return fmt.Errorf("the KSM run made %d PageForge fetches", n)
			}
			if convergeTicks < 20 {
				return fmt.Errorf("only %d convergence ticks ran, want at least 20", convergeTicks)
			}
			return nil
		}
	case "baseline-traffic":
		w.mode, w.app = platform.Baseline, profile("silo")
		w.cfg.MeasureIntervals = 1000
		w.live = func(c counters, convergeTicks int) error {
			if convergeTicks != 0 {
				return fmt.Errorf("baseline ran %d convergence ticks", convergeTicks)
			}
			if busy := c.dedupNonZero(); len(busy) > 0 {
				return fmt.Errorf("dedup counters moved on a baseline run: %s", strings.Join(busy, ", "))
			}
			return nil
		}
	default:
		return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

// churnEvents is ksm-churn's live-event schedule: an 18-pass balloon storm
// from pass 1, a phase change rewriting 30% of unique pages every third pass
// from pass 1, VM kills at passes 6 and 14 and VM spawns at passes 8 and 16.
func churnEvents(passes, stormPages int) []platform.Event {
	ev := []platform.Event{
		{Pass: 1, Kind: platform.EvBalloonStorm, Pages: stormPages, Passes: 18},
		{Pass: 6, Kind: platform.EvVMKill, VM: 0},
		{Pass: 8, Kind: platform.EvVMSpawn},
		{Pass: 14, Kind: platform.EvVMKill, VM: 1},
		{Pass: 16, Kind: platform.EvVMSpawn},
	}
	for p := 1; p < passes; p += 3 {
		ev = append(ev, platform.Event{Pass: p, Kind: platform.EvPhaseChange, Frac: 0.3})
	}
	return ev
}

func profile(name string) tailbench.Profile {
	p := tailbench.ProfileByName(name)
	if p == nil {
		panic("no tailbench profile " + name)
	}
	return *p
}

// counters is a finished run's counter snapshot (Result.Metrics.Counters).
type counters map[string]uint64

// sum adds every counter whose name starts with prefix.
func (c counters) sum(prefix string) uint64 {
	var s uint64
	for name, v := range c {
		if strings.HasPrefix(name, prefix) {
			s += v
		}
	}
	return s
}

// dedupNonZero names the nonzero counters that only a dedup engine moves.
func (c counters) dedupNonZero() []string {
	var busy []string
	for name, v := range c {
		dedup := strings.HasPrefix(name, "ksm/") || strings.HasPrefix(name, "pageforge/") ||
			name == "memctrl/pf_fetches" || name == "vm/merges" ||
			strings.HasSuffix(name, "/ksm") || strings.HasSuffix(name, "/pageforge")
		if dedup && v != 0 {
			busy = append(busy, name)
		}
	}
	sort.Strings(busy)
	return busy
}
