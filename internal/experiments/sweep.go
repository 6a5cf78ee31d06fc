package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tailbench"
)

// sweepMillis is each sweep point's simulated scanning time.
const sweepMillis = 1000

// SweepRow is one (sleep_millisecs, pages_to_scan) point: the footprint
// savings (in [0, 1]) at the end of the budget, the kthread's busy share of
// one core in percent, and the full scans it completed.
type SweepRow struct {
	SleepMillis float64
	PagesToScan int
	Savings     float64
	CorePct     float64
	FullScans   uint64
}

// SweepResult is the grid for one application.
type SweepResult struct {
	App        string
	VMs        int
	PagesPerVM int
	Rows       []SweepRow
}

// sweepGrid is the study's sleep_millisecs × pages_to_scan grid, in row
// order.
var sweepGrid = func() (grid []SweepRow) {
	for _, sleepMS := range []float64{2.5, 5, 10, 20} {
		for _, pts := range []int{100, 400, 1600} {
			grid = append(grid, SweepRow{SleepMillis: sleepMS, PagesToScan: pts})
		}
	}
	return grid
}()

// sweepPoint runs point i of the study of the two tunables the paper's
// §2.1 names as KSM's aggressiveness knobs: software KSM over one
// application on a fresh image for sweepMillis of simulated time at grid
// point i, churning the volatile pages whenever a full scan ends.
func sweepPoint(s *Suite, app tailbench.Profile, i int) (SweepRow, error) {
	row := sweepGrid[i]
	interval := sim.MillisToCycles(row.SleepMillis)
	img, err := tailbench.BuildImage(app, s.Cfg.VMs, s.Cfg.VMs*app.PagesPerVM*2+1024, s.Cfg.Seed)
	if err != nil {
		return row, err
	}
	st := newStepper(img.HV, s.Cfg, false, interval)
	for k := uint64(0); k < sim.MillisToCycles(sweepMillis)/interval; k++ {
		if st.step(row.PagesToScan) {
			if err := img.ChurnVolatile(); err != nil {
				return row, err
			}
		}
	}
	row.Savings, row.CorePct, row.FullScans = img.MeasureFootprint().Savings(), st.corePct(), st.alg.Stats.FullScans
	return row, nil
}

// newSweepResult assembles one application's grid rows.
func newSweepResult(s *Suite, app tailbench.Profile, rows []SweepRow) *SweepResult {
	return &SweepResult{App: app.Name, VMs: s.Cfg.VMs, PagesPerVM: app.PagesPerVM, Rows: rows}
}

// String renders the grid.
func (r *SweepResult) String() string {
	t := &table{
		title: fmt.Sprintf("Dedup aggressiveness sweep (%s): %d VMs x %d pages, %.1fs simulated per point",
			r.App, r.VMs, r.PagesPerVM, sweepMillis/1e3),
		header: []string{"sleep_ms", "pages_to_scan", "savings", "kthread_core%", "full_scans"},
	}
	for _, row := range r.Rows {
		t.add(f1(row.SleepMillis), fmt.Sprintf("%d", row.PagesToScan), pct(row.Savings),
			f1(row.CorePct)+"%", fmt.Sprintf("%d", row.FullScans))
		if row.SleepMillis == 5 && row.PagesToScan == 400 {
			t.notes = append(t.notes, fmt.Sprintf("The paper's operating point (5 ms, 400) reaches %.1f%% savings at %.1f%% of one core.",
				row.Savings*100, row.CorePct))
		}
	}
	t.notes = append(t.notes, "Every point runs software KSM; volatile pages churn whenever a full scan ends.")
	return t.String()
}
