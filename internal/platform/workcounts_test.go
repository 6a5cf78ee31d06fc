package platform

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/workcounts.json from this run")

const workCountsFile = "testdata/workcounts.json"

// ledgerEventsKey holds the attached ledger's event count (recorded plus
// dropped) beside the published counters; the slash-free name cannot
// collide with a layer/counter name.
const ledgerEventsKey = "ledger_events"

// workCounts runs img_dnn at the package's fast config, seed 1, in each
// mode and returns every published counter per mode. The KSM run fans its
// passes over 4 shards and 2 workers with a ledger attached, so the golden
// also pins the sharded scan and the provenance seams.
func workCounts(t *testing.T) map[string]map[string]uint64 {
	t.Helper()
	out := make(map[string]map[string]uint64)
	for _, mode := range []Mode{Baseline, KSM, PageForge} {
		cfg := fastConfig()
		cfg.Seed = 1
		var ldg *obs.Ledger
		if mode == KSM {
			cfg.ShardBits, cfg.ShardWorkers = 2, 2
			ldg = obs.NewLedger(0)
			cfg.Ledger = ldg
		}
		res, err := Run(mode, fastApp("img_dnn"), cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		counts := make(map[string]uint64, len(res.Metrics.Counters)+1)
		for name, v := range res.Metrics.Counters {
			counts[name] = v
		}
		if ldg != nil {
			counts[ledgerEventsKey] = uint64(ldg.Len()) + ldg.Dropped()
		}
		out[mode.String()] = counts
	}
	return out
}

// TestWorkCounts is the deterministic cost gate: the work each layer does
// (pages scanned, bytes compared, lines fetched, DRAM accesses, ...) must
// match the committed golden exactly, so a change that moves the
// simulator's work shows up as named counters, not as wall-clock noise.
// The values are pinned for linux/amd64. After an intended behaviour
// change, rewrite the golden with
//
//	go test ./internal/platform -run TestWorkCounts -args -update
func TestWorkCounts(t *testing.T) {
	t.Parallel()
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("work counts are pinned for linux/amd64, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	got := workCounts(t)
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workCountsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", workCountsFile)
		return
	}
	b, err := os.ReadFile(workCountsFile)
	if err != nil {
		t.Fatalf("%v (run with -args -update to create it)", err)
	}
	var want map[string]map[string]uint64
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", workCountsFile, err)
	}
	for _, mode := range []Mode{Baseline, KSM, PageForge} {
		w, g := want[mode.String()], got[mode.String()]
		if len(w) == 0 {
			t.Errorf("%s: no golden counts in %s", mode, workCountsFile)
			continue
		}
		for _, name := range unionKeys(w, g) {
			wv, inWant := w[name]
			gv, inGot := g[name]
			switch {
			case !inWant:
				t.Errorf("%s: %s = %d, not in the golden", mode, name, gv)
			case !inGot:
				t.Errorf("%s: %s want %d, counter no longer published", mode, name, wv)
			case wv != gv:
				t.Errorf("%s: %s want %d, got %d", mode, name, wv, gv)
			}
		}
	}
}

// unionKeys returns the sorted names present in either map.
func unionKeys(a, b map[string]uint64) []string {
	var names []string
	for name := range a {
		names = append(names, name)
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
