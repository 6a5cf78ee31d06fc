package experiments

import (
	"fmt"
	"time"

	"repro/internal/ksm"
	"repro/internal/obs"
	"repro/internal/tailbench"
)

// The scan-timing workload: a dup-heavy deployment (deep trees, long common
// prefixes) where compare and hash dominate, scanned in sharded passes with
// volatile pages churned between passes.
const (
	scanBenchVMs        = 8
	scanBenchPagesPerVM = 400
	scanBenchPasses     = 6 // full passes per timed run
	scanBenchRepeats    = 3 // timed runs per side; the best (min time) is kept
	scanBenchShardBits  = 4 // 2^bits content shards
	scanBenchWorkers    = 4 // ScanPass worker count
	scanBenchSeed       = 1
)

var scanBenchProfile = tailbench.Profile{
	Name:         "scanpass-bench",
	PagesPerVM:   scanBenchPagesPerVM,
	DupFrac:      0.55,
	DupCopies:    4,
	ZeroFrac:     0.05,
	VolatileFrac: 0.10,
}

// LedgerOverheadResult reports the scan hot path's throughput and the
// wall-clock cost of merge-lifecycle provenance on it: the same sharded scan
// passes timed with and without a ledger attached.
type LedgerOverheadResult struct {
	OffPagesPerSec float64 `json:"off_pages_per_sec"`
	OnPagesPerSec  float64 `json:"on_pages_per_sec"`
	// Overhead is the fractional slowdown, (off - on) / off; negative when
	// the instrumented run happened to be faster (pure noise).
	Overhead   float64 `json:"overhead_frac"`
	Events     int     `json:"ledger_events"`
	Candidates int     `json:"candidates_per_run"`
	Merges     uint64  `json:"merges_per_run"`
}

// scanRun is one timed run of the scan-timing workload on a freshly built
// image.
type scanRun struct {
	candidates int
	events     int
	merges     uint64
	elapsed    time.Duration
}

func timeScanRun(withLedger bool) (scanRun, error) {
	img, err := tailbench.BuildImage(scanBenchProfile, scanBenchVMs, scanBenchVMs*scanBenchPagesPerVM*2, scanBenchSeed)
	if err != nil {
		return scanRun{}, err
	}
	s := ksm.NewScanner(ksm.NewAlgorithmSharded(img.HV, ksm.JHasher{}, scanBenchShardBits), ksm.DefaultCosts())
	var ldg *obs.Ledger
	if withLedger {
		ldg = obs.NewLedger(0)
		s.Ledger = ldg
	}
	var r scanRun
	start := time.Now()
	for p := 0; p < scanBenchPasses; p++ {
		ldg.SetPass(p)
		r.candidates += s.ScanPass(scanBenchWorkers).Scanned
		img.ChurnVolatile()
	}
	r.elapsed = time.Since(start)
	r.merges = img.HV.Merges
	r.events = ldg.Len() + int(ldg.Dropped())
	return r, nil
}

// RunLedgerOverheadBench times the scan hot path and measures provenance
// overhead with a fresh absolute on-vs-off comparison — no committed
// baseline involved, so the gate is meaningful on any machine. Both sides do
// identical algorithmic work (same image, same merge decisions, asserted via
// merge counts). Each side runs scanBenchRepeats times keeping its best
// time, the standard defense against scheduler noise, and the two sides
// alternate within each repeat (off→on, then on→off, ...) so machine drift
// lands on both. The instrumented side also proves the ledger saw real
// traffic: a run that recorded no events would gate nothing.
func RunLedgerOverheadBench() (LedgerOverheadResult, error) {
	var off, on scanRun
	for r := 0; r < scanBenchRepeats; r++ {
		for i := 0; i < 2; i++ {
			withLedger := (r+i)%2 == 1 // off→on on even repeats, on→off on odd
			run, err := timeScanRun(withLedger)
			if err != nil {
				return LedgerOverheadResult{}, err
			}
			best := &off
			if withLedger {
				best = &on
			}
			if r == 0 || run.elapsed < best.elapsed {
				*best = run
			}
		}
	}
	if off.candidates != on.candidates || off.merges != on.merges {
		return LedgerOverheadResult{}, fmt.Errorf(
			"ledgerbench: instrumented run diverged (candidates %d/%d, merges %d/%d) — the ledger perturbed the scan",
			off.candidates, on.candidates, off.merges, on.merges)
	}
	if on.events == 0 {
		return LedgerOverheadResult{}, fmt.Errorf("ledgerbench: instrumented run recorded no ledger events")
	}
	res := LedgerOverheadResult{
		OffPagesPerSec: float64(off.candidates) / off.elapsed.Seconds(),
		OnPagesPerSec:  float64(on.candidates) / on.elapsed.Seconds(),
		Events:         on.events,
		Candidates:     off.candidates,
		Merges:         off.merges,
	}
	res.Overhead = (res.OffPagesPerSec - res.OnPagesPerSec) / res.OffPagesPerSec
	return res, nil
}
