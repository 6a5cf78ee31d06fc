package experiments

import (
	"fmt"
	"reflect"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/tailbench"
)

// The efficiency experiment (an observability extension beyond the paper's
// evaluation): a scan-efficiency attribution sweep. Every (engine, app)
// point runs with the merge-lifecycle ledger and the per-pass series
// attached, so the report can say not only how much memory each engine
// saved but where the scan budget went — productive merges vs work wasted
// to content churn, checksum instability, fault retries, and backpressure
// sheds — and how fast the savings arrived (the pass by which 90% of the
// eventual merges had landed). Each point then re-runs bare and the two
// Results must be deeply equal: provenance instrumentation is load-bearing
// here precisely because it is proven weightless.

// EfficiencyRow is one (engine, application) data point.
type EfficiencyRow struct {
	Mode string
	App  string

	// Convergence outcome: passes to steady state, candidates scanned,
	// merges landed (stable + unstable + zero), end-of-run savings.
	Passes     int
	Scanned    uint64
	Merged     uint64
	SavingsPct float64

	// Wasted-work attribution from the ledger's cause axis.
	Churned    uint64 // content churn: hash key changed between passes
	Unstable   uint64 // checksum instability: match lost the final verify
	FaultRetry uint64 // hardware UE aborts and their fallback merges
	Shed       uint64 // whole passes shed by backpressure

	// MergesPerKScan is the headline efficiency: merges per 1,000 scanned
	// candidates.
	MergesPerKScan float64

	// P90Pass is the first convergence pass by which 90% of the convergence
	// phase's merges had landed, read off the per-pass series (-1 when the
	// run merged nothing).
	P90Pass int

	// LedgerEvents / LedgerDropped size the provenance stream; Identical
	// records the bit-identity cross-check against the bare re-run.
	LedgerEvents  uint64
	LedgerDropped uint64
	Identical     bool
}

// EfficiencyResult is the sweep.
type EfficiencyResult struct {
	Rows []EfficiencyRow
}

// efficiencyPoint runs one (engine, app) twice — instrumented with ledger +
// series, then bare — and cross-checks the Results for deep equality.
func efficiencyPoint(base platform.Config, series *obs.Series, mode platform.Mode,
	app tailbench.Profile) (EfficiencyRow, error) {

	cfg := base
	cfg.Ledger = obs.NewLedger(0)
	cfg.Series = series
	res, err := platform.Run(mode, app, cfg)
	if err != nil {
		return EfficiencyRow{}, fmt.Errorf("experiments: efficiency %s/%s: %w", mode, app.Name, err)
	}

	bareCfg := base
	bareCfg.Trace = nil
	bareCfg.Ledger = nil
	bareCfg.Series = nil
	bare, err := platform.Run(mode, app, bareCfg)
	if err != nil {
		return EfficiencyRow{}, fmt.Errorf("experiments: efficiency %s/%s (bare): %w", mode, app.Name, err)
	}

	at := cfg.Ledger.Attribution()
	st := res.Stats
	row := EfficiencyRow{
		Mode:          mode.String(),
		App:           app.Name,
		Passes:        res.ConvergedPasses,
		Scanned:       st.PagesScanned,
		Merged:        st.StableMerges + st.UnstableMerges,
		SavingsPct:    res.Footprint.Savings() * 100,
		Churned:       at.Causes["content_churn"],
		Unstable:      at.Causes["checksum_instability"],
		FaultRetry:    at.Causes["fault_retry"],
		Shed:          at.Causes["backpressure_shed"],
		LedgerEvents:  at.Events,
		LedgerDropped: at.Dropped,
		P90Pass:       -1,
		Identical:     reflect.DeepEqual(res, bare),
	}
	if row.Scanned > 0 {
		row.MergesPerKScan = float64(row.Merged) / float64(row.Scanned) * 1000
	}

	// Convergence speed off the series: cumulate the per-pass vm/merges
	// deltas and find the pass crossing 90% of the phase total.
	track := series.Track(fmt.Sprintf("%s/%s", mode, app.Name))
	var cum, total uint64
	for _, p := range track.Points() {
		if p.Phase == "converge" {
			total += p.Counters["vm/merges"]
		}
	}
	if total > 0 {
		for _, p := range track.Points() {
			if p.Phase != "converge" {
				continue
			}
			cum += p.Counters["vm/merges"]
			if cum*10 >= total*9 {
				row.P90Pass = p.Index
				break
			}
		}
	}
	return row, nil
}

// Efficiency sweeps both dedup engines across the suite's applications with
// full provenance instrumentation. Points are independent hermetic worlds
// sharing the suite configuration and seed; they deliberately bypass the
// suite's singleflight cache because each needs its own per-run ledger.
func Efficiency(s *Suite) (*EfficiencyResult, error) {
	res := &EfficiencyResult{}
	series := obs.NewSeries(0)
	for _, mode := range []platform.Mode{platform.KSM, platform.PageForge} {
		for _, app := range s.Apps {
			row, err := efficiencyPoint(s.Cfg, series, mode, app)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
			// When the suite carries a shared series (run -out), republish
			// this point's track into it under an "efficiency/" prefix — the
			// bare "Mode/app" names belong to the suite's own cached runs.
			if shared := s.Cfg.Series; shared != nil {
				name := fmt.Sprintf("%s/%s", mode, app.Name)
				shared.Track("efficiency/" + name).SetState(series.Track(name).State())
			}
		}
	}
	return res, nil
}

// String renders the sweep as a table.
func (r *EfficiencyResult) String() string {
	t := &table{
		title: "Efficiency: scan-budget attribution and convergence speed (ledger + per-pass series)",
		header: []string{"engine", "app", "passes", "p90", "scanned", "merged",
			"merge/kscan", "churn", "unstable", "fault", "shed", "savings", "events", "identical"},
	}
	for _, row := range r.Rows {
		t.add(
			row.Mode,
			row.App,
			fmt.Sprintf("%d", row.Passes),
			fmt.Sprintf("%d", row.P90Pass),
			fmt.Sprintf("%d", row.Scanned),
			fmt.Sprintf("%d", row.Merged),
			f1(row.MergesPerKScan),
			fmt.Sprintf("%d", row.Churned),
			fmt.Sprintf("%d", row.Unstable),
			fmt.Sprintf("%d", row.FaultRetry),
			fmt.Sprintf("%d", row.Shed),
			f1(row.SavingsPct)+"%",
			fmt.Sprintf("%d", row.LedgerEvents),
			fmt.Sprintf("%t", row.Identical),
		)
	}
	t.notes = append(t.notes,
		"p90 = first convergence pass holding 90% of the phase's merges (per-pass series);",
		"churn/unstable/fault/shed = wasted-work events by ledger cause. every point",
		"re-runs bare; identical=true means the instrumented Result is deeply equal.")
	return t.String()
}
