package experiments

import (
	"strings"
	"testing"
)

// TestPressureSweepShape runs the harshest two points and checks the sweep
// tells the resilience story: the storm stalls, the balloon reclaims, the
// ladder degrades and recovers, and the oracle audited the whole run.
// (pressurePoint itself enforces the audited ≡ bare determinism.)
func TestPressureSweepShape(t *testing.T) {
	r, err := pressureSweep(NewFastSuite(), []float64{1.5, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The +1 frame in arena sizing rounds the realized ratio a hair
		// below the request; the arena floor can also cap it (2.0 → ~1.64).
		if row.EffRatio < 1.45 {
			t.Fatalf("ratio %.2f: effective overcommit %.2f not a real storm", row.Ratio, row.EffRatio)
		}
		if row.AllocStalls == 0 || row.BalloonReclaimed == 0 {
			t.Fatalf("ratio %.2f: storm never exercised the stall/balloon path: %+v", row.Ratio, row)
		}
		if row.Transitions == 0 || !row.Recovered || row.Final != "healthy" {
			t.Fatalf("ratio %.2f: ladder did not degrade and recover: %+v", row.Ratio, row)
		}
		if row.Intervals == 0 || row.ContentChecks == 0 {
			t.Fatalf("ratio %.2f: invariant checker did no work: %+v", row.Ratio, row)
		}
	}
	if out := r.String(); !strings.Contains(out, "throttled") {
		t.Fatalf("rendering lost the ladder path:\n%s", out)
	}
}
