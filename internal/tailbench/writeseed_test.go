package tailbench_test

import (
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/pressure"
	"repro/internal/tailbench"
)

// fillWriter is the checker of a run whose image writes whole pages
// through FillPage and Write: it switches the image over as the run
// begins, before any guest write.
type fillWriter struct{ *check.Checker }

func (w fillWriter) BeginRun(mode platform.Mode, img *tailbench.Image) {
	tailbench.WriteThroughFill(img)
	w.Checker.BeginRun(mode, img)
}

// TestWriteSeedMatchesFillAndWrite runs a small world shaped like the
// ksm-churn benchmark — sharded KSM on masstree with a balloon storm into
// the burst region, phase changes, a VM kill and a VM spawn — on an
// overcommitted machine, so that guest writes stall and reclaim, twice,
// with the checker attached so that every write reaches the OnWrite observer:
// once with the image's seeded whole-page writes, once with each page
// generated by FillPage and stored by Write. The Result, the series and the
// ledger must be identical, and the checker must pass both runs.
func TestWriteSeedMatchesFillAndWrite(t *testing.T) {
	t.Parallel()
	app := *tailbench.ProfileByName("masstree")
	app.PagesPerVM = 300
	app.BurstPagesPerVM = 300
	run := func(fill bool) (*platform.Result, []obs.SeriesPoint, []obs.LedgerEvent, check.Counters) {
		cfg := platform.DefaultConfig()
		cfg.ConvergePasses = 12
		cfg.MeasureIntervals = 4
		cfg.PagesToScan = 400
		cfg.ShardBits = 4
		cfg.ShardWorkers = 2
		cfg.Pressure = pressure.DefaultConfig()
		cfg.Pressure.Enabled = true
		cfg.Pressure.OvercommitRatio = 2.5
		cfg.Events = []platform.Event{
			{Pass: 1, Kind: platform.EvBalloonStorm, Pages: 60, Passes: 5},
			{Pass: 3, Kind: platform.EvVMKill, VM: 0},
			{Pass: 5, Kind: platform.EvVMSpawn},
		}
		for p := 1; p < cfg.ConvergePasses; p += 3 {
			cfg.Events = append(cfg.Events, platform.Event{Pass: p, Kind: platform.EvPhaseChange, Frac: 0.3})
		}
		cfg.Ledger = obs.NewLedger(0)
		cfg.Series = obs.NewSeries(0)
		ck := &check.Checker{}
		cfg.Verifier = ck
		if fill {
			cfg.Verifier = fillWriter{ck}
		}
		res, err := platform.Run(platform.KSM, app, cfg)
		if err != nil {
			t.Fatalf("fill %v: %v", fill, err)
		}
		return res, cfg.Series.Track("KSM/" + app.Name).Points(), cfg.Ledger.Events(), ck.Counters
	}
	seeded, seededSeries, seededLedger, seededChecks := run(false)
	filled, filledSeries, filledLedger, filledChecks := run(true)
	if seededChecks.ContentChecks == 0 || len(seededSeries) == 0 || len(seededLedger) == 0 ||
		seeded.Pressure.BurstPages == 0 || seeded.Pressure.AllocStalls == 0 {
		t.Fatalf("the run checked %d pages, sampled %d points, recorded %d ledger events, wrote %d storm pages "+
			"and stalled %d allocations; want each nonzero", seededChecks.ContentChecks, len(seededSeries),
			len(seededLedger), seeded.Pressure.BurstPages, seeded.Pressure.AllocStalls)
	}
	if !reflect.DeepEqual(seeded, filled) {
		t.Fatalf("seeded writes changed the Result:\n%+v\n%+v", seeded, filled)
	}
	if !reflect.DeepEqual(seededSeries, filledSeries) {
		t.Fatal("seeded writes changed the series")
	}
	if !reflect.DeepEqual(seededLedger, filledLedger) {
		t.Fatal("seeded writes changed the ledger")
	}
	if seededChecks != filledChecks {
		t.Fatalf("checker counters differ: %+v, %+v", seededChecks, filledChecks)
	}
}
