package experiments

import (
	"repro/internal/platform"
)

// LatencyRow holds one application's normalized latencies under the three
// configurations (Baseline always 1.0).
type LatencyRow struct {
	App           string
	KSMMean       float64 // Figure 9
	PageForgeMean float64
	KSMP95        float64 // Figure 10
	PageForgeP95  float64
}

// LatencyResult covers Figures 9 and 10 (they come from the same runs).
type LatencyResult struct {
	Rows []LatencyRow
	// Paper averages: KSM 1.68x mean / 2.36x tail; PageForge 1.10x / 1.11x.
	AvgKSMMean       float64
	AvgPageForgeMean float64
	AvgKSMP95        float64
	AvgPageForgeP95  float64
}

// Latency runs the queueing phase for all three configurations of every
// application and reports sojourn latencies normalized to Baseline.
func Latency(s *Suite) (*LatencyResult, error) {
	res := &LatencyResult{}
	for _, app := range s.Apps {
		base, err := s.Result(platform.Baseline, app)
		if err != nil {
			return nil, err
		}
		k, err := s.Result(platform.KSM, app)
		if err != nil {
			return nil, err
		}
		pf, err := s.Result(platform.PageForge, app)
		if err != nil {
			return nil, err
		}
		seed := s.Cfg.Seed*977 + 13
		lb := platform.Latency(app, base, base, s.Cfg, s.MinQueries, seed)
		lk := platform.Latency(app, base, k, s.Cfg, s.MinQueries, seed)
		lp := platform.Latency(app, base, pf, s.Cfg, s.MinQueries, seed)
		row := LatencyRow{
			App:           app.Name,
			KSMMean:       lk.Mean / lb.Mean,
			PageForgeMean: lp.Mean / lb.Mean,
			KSMP95:        lk.P95 / lb.P95,
			PageForgeP95:  lp.P95 / lb.P95,
		}
		res.Rows = append(res.Rows, row)
		res.AvgKSMMean += row.KSMMean
		res.AvgPageForgeMean += row.PageForgeMean
		res.AvgKSMP95 += row.KSMP95
		res.AvgPageForgeP95 += row.PageForgeP95
	}
	n := float64(len(res.Rows))
	res.AvgKSMMean /= n
	res.AvgPageForgeMean /= n
	res.AvgKSMP95 /= n
	res.AvgPageForgeP95 /= n
	return res, nil
}

// latency returns the suite's Latency result, computing it on first use.
func (s *Suite) latency() (*LatencyResult, error) {
	s.latOnce.Do(func() { s.lat, s.latErr = Latency(s) })
	return s.lat, s.latErr
}

// Figure9 renders the mean sojourn latency comparison.
func (r *LatencyResult) Figure9() string {
	t := &table{
		title:  "Figure 9: Mean sojourn latency normalized to Baseline",
		header: []string{"App", "Baseline", "KSM", "PageForge"},
	}
	for _, row := range r.Rows {
		t.add(row.App, "1.00", f2(row.KSMMean), f2(row.PageForgeMean))
	}
	t.add("average", "1.00", f2(r.AvgKSMMean), f2(r.AvgPageForgeMean))
	t.notes = append(t.notes, "paper: KSM 1.68x, PageForge 1.10x on average")
	return t.String()
}

// Figure10 renders the 95th-percentile latency comparison.
func (r *LatencyResult) Figure10() string {
	t := &table{
		title:  "Figure 10: 95th percentile latency normalized to Baseline",
		header: []string{"App", "Baseline", "KSM", "PageForge"},
	}
	for _, row := range r.Rows {
		t.add(row.App, "1.00", f2(row.KSMP95), f2(row.PageForgeP95))
	}
	t.add("average", "1.00", f2(r.AvgKSMP95), f2(r.AvgPageForgeP95))
	t.notes = append(t.notes, "paper: KSM 2.36x, PageForge 1.11x on average; silo's tail >5x under KSM")
	return t.String()
}
