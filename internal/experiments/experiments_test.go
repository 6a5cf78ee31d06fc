package experiments

import (
	"strings"
	"testing"
)

// The fast suite trades scale for runtime; shape assertions use wide bands.
// The full-scale reproduction is exercised by the benchmark harness and
// recorded in EXPERIMENTS.md.

func fastSuiteOneApp(t *testing.T, names ...string) *Suite {
	t.Helper()
	s := NewFastSuite()
	if len(names) > 0 {
		var apps = s.Apps[:0]
		for _, a := range NewFastSuite().Apps {
			for _, n := range names {
				if a.Name == n {
					apps = append(apps, a)
				}
			}
		}
		s.Apps = apps
	}
	return s
}

func TestFigure7Shape(t *testing.T) {
	s := fastSuiteOneApp(t, "img_dnn", "silo")
	r, err := Figure7(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	if r.AvgSavings < 0.30 || r.AvgSavings > 0.65 {
		t.Fatalf("avg savings %.2f outside the paper-shaped band", r.AvgSavings)
	}
	for _, row := range r.Rows {
		if sum := row.Unmergeable + row.MergeableZero + row.MergeableNonZero; sum < 0.98 || sum > 1.02 {
			t.Fatalf("%s composition sums to %.3f", row.App, sum)
		}
		if row.MergedTotal >= 1 {
			t.Fatalf("%s merged footprint not reduced", row.App)
		}
		if row.VMCapacityMultiple < 1.5 {
			t.Fatalf("%s VM capacity multiple %.2f (paper: ~2x)", row.App, row.VMCapacityMultiple)
		}
		// Zero pages collapse to (at most) one frame per deployment.
		if row.MergedZeroFrames > 0.001 {
			t.Fatalf("%s zero frames fraction %.4f", row.App, row.MergedZeroFrames)
		}
	}
	out := r.String()
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "img_dnn") {
		t.Fatal("rendering broken")
	}
}

func TestFigure8Shape(t *testing.T) {
	s := fastSuiteOneApp(t, "img_dnn")
	r, err := Figure8(s)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	// Keys must mostly match at steady state (pages mostly unchanged).
	if row.JHashMatch < 0.3 || row.ECCMatch < 0.3 {
		t.Fatalf("match rates implausibly low: %+v", row)
	}
	// ECC keys have more false positives than jhash (they sample less of
	// the written region), but the excess is small.
	if row.ExtraECCMatch < 0 {
		t.Fatalf("ECC keys matched less than jhash: %+v", row)
	}
	if row.ExtraECCMatch > 0.20 {
		t.Fatalf("ECC extra matches %.2f implausibly high", row.ExtraECCMatch)
	}
	if r.FootprintReduction != 0.75 {
		t.Fatalf("footprint reduction %.2f, want exactly 0.75 (256B vs 1KB)", r.FootprintReduction)
	}
	if !strings.Contains(r.String(), "Figure 8") {
		t.Fatal("rendering broken")
	}
}

func TestTable4Shape(t *testing.T) {
	s := fastSuiteOneApp(t, "silo")
	r, err := Table4(s)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row.AvgKSMCyclesPct <= 0 || row.AvgKSMCyclesPct > 15 {
		t.Fatalf("avg KSM cycles %.1f%%", row.AvgKSMCyclesPct)
	}
	if row.MaxKSMCyclesPct <= row.AvgKSMCyclesPct {
		t.Fatal("max core share not above average")
	}
	if row.PageCompPct <= row.HashGenPct {
		t.Fatalf("compare %.0f%% not dominating hash %.0f%%", row.PageCompPct, row.HashGenPct)
	}
	if row.KSML3Miss <= row.BaselineL3Miss {
		t.Fatal("no L3 pollution under KSM")
	}
	if !strings.Contains(r.String(), "Table 4") {
		t.Fatal("rendering broken")
	}
}

func TestLatencyShape(t *testing.T) {
	s := fastSuiteOneApp(t, "silo", "moses")
	r, err := Latency(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgKSMMean <= r.AvgPageForgeMean {
		t.Fatalf("KSM mean %.2f not above PageForge %.2f", r.AvgKSMMean, r.AvgPageForgeMean)
	}
	if r.AvgPageForgeMean < 1.0 || r.AvgPageForgeMean > 1.35 {
		t.Fatalf("PageForge mean overhead %.2f outside band", r.AvgPageForgeMean)
	}
	if r.AvgKSMP95 <= r.AvgPageForgeP95 {
		t.Fatal("tail ordering violated")
	}
	// Tail inflation under KSM tracks the mean inflation.
	if r.AvgKSMP95 < 1.05 || r.AvgKSMP95 < 0.75*r.AvgKSMMean {
		t.Fatalf("KSM tail %.2f too low vs mean %.2f", r.AvgKSMP95, r.AvgKSMMean)
	}
	if !strings.Contains(r.Figure9(), "Figure 9") || !strings.Contains(r.Figure10(), "Figure 10") {
		t.Fatal("rendering broken")
	}
}

func TestFigure11Shape(t *testing.T) {
	s := fastSuiteOneApp(t, "img_dnn")
	r, err := Figure11(s)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if !(row.BaselineGBps < row.KSMGBps) {
		t.Fatalf("KSM %.2f not above baseline %.2f", row.KSMGBps, row.BaselineGBps)
	}
	if row.PFDedupGBps <= 0 || row.KSMDedupGBps <= 0 {
		t.Fatal("dedup bandwidth missing")
	}
	if !strings.Contains(r.String(), "Figure 11") {
		t.Fatal("rendering broken")
	}
}

func TestTable5Shape(t *testing.T) {
	s := fastSuiteOneApp(t, "img_dnn", "silo")
	r, err := Table5(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.ScanTableAvgCycles <= 0 {
		t.Fatal("no batch timing")
	}
	// Batches must be processed well within one OS polling period on
	// average (Table 5: "typically the table has been fully processed by
	// the time the OS checks").
	if r.ScanTableAvgCycles > float64(r.OSCheckCycles)*1.5 {
		t.Fatalf("batch %.0f cycles vs poll %d", r.ScanTableAvgCycles, r.OSCheckCycles)
	}
	if r.Power.Total.AreaMM2 > 0.05 || r.Power.Total.PowerW > 0.05 {
		t.Fatalf("hardware cost out of band: %+v", r.Power.Total)
	}
	if !strings.Contains(r.String(), "Table 5") {
		t.Fatal("rendering broken")
	}
}

func TestSuiteCachesResults(t *testing.T) {
	s := fastSuiteOneApp(t, "silo")
	a, err := s.Result(0, s.Apps[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Result(0, s.Apps[0])
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("results not cached")
	}
}

func TestSatoriShape(t *testing.T) {
	s := NewFastSuite()
	r, err := Satori(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	byKey := map[string]SatoriRow{}
	for _, row := range r.Rows {
		byKey[row.Engine+string(rune('0'+row.PagesToScan/1600))] = row
		if row.CapturedPct < 0 || row.CapturedPct > 100 {
			t.Fatalf("capture out of range: %+v", row)
		}
	}
	// More aggressive scanning captures more (both engines).
	for _, eng := range []string{"ksm", "pageforge"} {
		lo, hi := byKey[eng+"0"], byKey[eng+"4"]
		if hi.CapturedPct <= lo.CapturedPct {
			t.Fatalf("%s: aggressive capture %.1f <= default %.1f",
				eng, hi.CapturedPct, lo.CapturedPct)
		}
	}
	// The claim: at high aggressiveness, KSM's core cost explodes while
	// PageForge's stays marginal.
	ksmHi, pfHi := byKey["ksm4"], byKey["pageforge4"]
	if ksmHi.CoreBusyPct < 50 {
		t.Fatalf("aggressive KSM core cost %.1f%% implausibly low", ksmHi.CoreBusyPct)
	}
	if pfHi.CoreBusyPct > 10 {
		t.Fatalf("aggressive PageForge core cost %.1f%% too high", pfHi.CoreBusyPct)
	}
	if !strings.Contains(r.String(), "Satori") {
		t.Fatal("rendering broken")
	}
}

// runExp runs the registry experiment name on s.
func runExp(t *testing.T, s *Suite, name string) []Artifact {
	t.Helper()
	set, err := Registry().Select(name)
	if err != nil {
		t.Fatal(err)
	}
	arts, err := set[0].Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return arts
}

func TestTimelineShape(t *testing.T) {
	s := NewFastSuite()
	s.Apps = s.Apps[:1]
	r := runExp(t, s, "timeline")[0].Value.(*TimelineResult)
	n := timelineIntervals
	if len(r.SavingsKSM) != n || len(r.SavingsPF) != n {
		t.Fatalf("series lengths %d/%d", len(r.SavingsKSM), len(r.SavingsPF))
	}
	// Monotone non-decreasing ramps reaching real savings.
	for i := 1; i < n; i++ {
		if r.SavingsKSM[i]+0.02 < r.SavingsKSM[i-1] || r.SavingsPF[i]+0.02 < r.SavingsPF[i-1] {
			t.Fatalf("non-monotone ramp at %d", i)
		}
	}
	if r.SavingsKSM[n-1] < 0.3 {
		t.Fatalf("KSM final savings %.2f", r.SavingsKSM[n-1])
	}
	if r.SavingsPF[n-1] < 0.2 {
		t.Fatalf("PF final savings %.2f", r.SavingsPF[n-1])
	}
	// The cost asymmetry.
	if r.PFCorePct > r.KSMCorePct/5 {
		t.Fatalf("PF core %.1f%% not far below KSM %.1f%%", r.PFCorePct, r.KSMCorePct)
	}
	if !strings.Contains(r.String(), "Convergence timeline") {
		t.Fatal("rendering broken")
	}
}

// TestSweepShape pins the registry's sweep entry: one artifact per app,
// keyed sweep_app and naming its app, whose 12 grid rows hold savings in
// [0, 1], a kthread core share that rises strictly with pages_to_scan at
// each sleep, and at least one full scan on every point but the slowest
// (20 ms, 100).
func TestSweepShape(t *testing.T) {
	s := fastSuiteOneApp(t, "img_dnn", "silo")
	arts := runExp(t, s, "sweep")
	if len(arts) != len(s.Apps) {
		t.Fatalf("%d artifacts for %d apps", len(arts), len(s.Apps))
	}
	for i, a := range arts {
		app := s.Apps[i].Name
		r, ok := a.Value.(*SweepResult)
		if a.Key != "sweep_"+app || !ok || r.App != app {
			t.Fatalf("artifact %q holds %T, want sweep_%s", a.Key, a.Value, app)
		}
		if !strings.Contains(a.Text, app) {
			t.Errorf("%s: rendering does not name the app:\n%s", app, a.Text)
		}
		if len(r.Rows) != 12 {
			t.Fatalf("%s: %d rows, want 12", app, len(r.Rows))
		}
		for j, row := range r.Rows {
			if row.Savings < 0 || row.Savings > 1 {
				t.Errorf("%s: savings out of [0, 1]: %+v", app, row)
			}
			if row.FullScans < 1 && !(row.SleepMillis == 20 && row.PagesToScan == 100) {
				t.Errorf("%s: no full scan: %+v", app, row)
			}
			if j == 0 {
				continue
			}
			if prev := r.Rows[j-1]; row.SleepMillis == prev.SleepMillis && row.CorePct <= prev.CorePct {
				t.Errorf("%s: core share does not rise with pages_to_scan: %+v after %+v", app, row, prev)
			}
		}
	}
}
