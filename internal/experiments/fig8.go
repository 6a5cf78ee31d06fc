package experiments

import (
	"fmt"

	"repro/internal/ksm"
	"repro/internal/tailbench"
)

// Fig8Row reports the outcome of hash-key comparisons for one application:
// the fraction of candidate-page key checks that matched (page deemed
// unchanged, unstable-tree search proceeds) vs mismatched, for KSM's
// jhash-based keys and PageForge's ECC-based keys.
type Fig8Row struct {
	App            string
	JHashMatch     float64
	JHashMismatch  float64
	ECCMatch       float64
	ECCMismatch    float64
	ExtraECCMatch  float64 // ECCMatch - JHashMatch: the ECC false positives
	JHashBytesRead int
	ECCBytesRead   int
}

// Fig8Result is Figure 8 plus the headline average.
type Fig8Result struct {
	Rows []Fig8Row
	// AvgExtraECCMatch is the average extra match fraction of ECC keys
	// (paper: 3.7% of comparisons are additional false positives).
	AvgExtraECCMatch float64
	// FootprintReduction is the key-generation traffic saving (paper: 75%).
	FootprintReduction float64
}

// Figure8 runs the same deployment twice — once hashing with jhash2 over
// 1KB (KSM) and once with ECC minikeys over 256B (PageForge) — with
// identical content evolution (same seeds drive the volatile churn), and
// compares the key-check outcomes.
func Figure8(s *Suite) (*Fig8Result, error) {
	res := &Fig8Result{}
	for _, app := range s.Apps {
		jm, jmm, err := hashOutcomes(s, app, ksm.JHasher{})
		if err != nil {
			return nil, err
		}
		em, emm, err := hashOutcomes(s, app, ksm.NewECCHasher())
		if err != nil {
			return nil, err
		}
		row := Fig8Row{
			App:            app.Name,
			JHashMatch:     jm,
			JHashMismatch:  jmm,
			ECCMatch:       em,
			ECCMismatch:    emm,
			ExtraECCMatch:  em - jm,
			JHashBytesRead: ksm.JHasher{}.BytesRead(),
			ECCBytesRead:   ksm.NewECCHasher().BytesRead(),
		}
		res.Rows = append(res.Rows, row)
		res.AvgExtraECCMatch += row.ExtraECCMatch
	}
	res.AvgExtraECCMatch /= float64(len(res.Rows))
	res.FootprintReduction = 1 - float64(ksm.NewECCHasher().BytesRead())/float64(ksm.JHasher{}.BytesRead())
	return res, nil
}

// hashOutcomes builds the deployment, converges, then runs extra passes
// with churn, reporting the match/mismatch fractions of hash checks.
func hashOutcomes(s *Suite, app tailbench.Profile, h ksm.Hasher) (match, mismatch float64, err error) {
	physFrames := s.Cfg.VMs*app.PagesPerVM*2 + 1024
	img, err := tailbench.BuildImage(app, s.Cfg.VMs, physFrames, s.Cfg.Seed)
	if err != nil {
		return 0, 0, err
	}
	scanner := ksm.NewScanner(ksm.NewAlgorithm(img.HV, h), s.Cfg.KSMCosts)

	passes := max(s.Cfg.ConvergePasses, 6)
	var startMatches, startMismatches uint64
	for p := 0; p < passes; p++ {
		if p == passes/2 {
			// Steady state reached: measure outcomes from here on.
			startMatches = scanner.Alg.Stats.HashMatches
			startMismatches = scanner.Alg.Stats.HashMismatches
		}
		pages := scanner.Alg.MergeablePages()
		for i := 0; i < pages; i++ {
			scanner.ScanOne()
		}
		if err := img.ChurnVolatile(); err != nil {
			return 0, 0, fmt.Errorf("experiments: fig8 churn: %w", err)
		}
	}
	m := scanner.Alg.Stats.HashMatches - startMatches
	mm := scanner.Alg.Stats.HashMismatches - startMismatches
	total := float64(m + mm)
	if total == 0 {
		return 0, 0, nil
	}
	return float64(m) / total, float64(mm) / total, nil
}

// String renders the figure as a table.
func (r *Fig8Result) String() string {
	t := &table{
		title:  "Figure 8: Outcome of hash key comparisons (jhash vs ECC-based keys)",
		header: []string{"App", "jhash match", "jhash mismatch", "ECC match", "ECC mismatch", "extra ECC match"},
	}
	for _, row := range r.Rows {
		t.add(row.App, pct(row.JHashMatch), pct(row.JHashMismatch),
			pct(row.ECCMatch), pct(row.ECCMismatch), pct(row.ExtraECCMatch))
	}
	t.notes = append(t.notes,
		"paper: ECC keys show ~3.7% additional (false-positive) matches on average; measured "+pct(r.AvgExtraECCMatch),
		"key-generation footprint: jhash 1024B vs ECC 256B per page ("+pct(r.FootprintReduction)+" reduction; paper 75%)")
	return t.String()
}
