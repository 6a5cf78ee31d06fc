package experiments

import (
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/workload"
)

func TestVerifySweepPasses(t *testing.T) {
	s := NewFastSuite()
	s.Parallelism = 4
	res, err := verify(s, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.FaultFree.Scenarios + res.Faulted.Scenarios; got != 12 {
		t.Fatalf("scenario accounting: %d != 12", got)
	}
	if res.FaultFree.Scenarios == 0 || res.Faulted.Scenarios == 0 {
		t.Fatalf("sweep covered one regime only: %+v", res)
	}
	if res.FaultFree.DiffEligible == 0 {
		t.Fatalf("no diff-eligible scenarios in the sweep: %+v", res.FaultFree)
	}
	if res.FaultFree.DiffChecked != res.FaultFree.DiffEligible {
		t.Fatalf("differential skipped on %d eligible scenarios",
			res.FaultFree.DiffEligible-res.FaultFree.DiffChecked)
	}
	if res.FaultFree.ContentChecks == 0 || res.FaultFree.RefcountChecks == 0 {
		t.Fatalf("checker did no work: %+v", res.FaultFree)
	}
	out := res.String()
	for _, want := range []string{"12 randomized scenarios", "fault-free", "faulted", "diff eq"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

// TestVerifyShrinksInjectedBug substitutes the scenario runner with one
// carrying an intentional oracle bug — it rejects any scenario with ≥3 VMs
// and a duplicated region — and checks the sweep catches it and shrinks it
// to the minimal reproducing configuration.
func TestVerifyShrinksInjectedBug(t *testing.T) {
	orig := verifyRun
	defer func() { verifyRun = orig }()
	verifyRun = func(sc workload.Scenario) (*check.Report, error) {
		if sc.VMs >= 3 && sc.DupFrac > 0.1 {
			return nil, &injectedBug{}
		}
		return &check.Report{Scenario: sc, FaultFree: sc.FaultFree()}, nil
	}

	s := NewFastSuite()
	s.Parallelism = 2
	_, err := verify(s, 30)
	if err == nil {
		t.Fatal("injected oracle bug escaped the sweep")
	}
	msg := err.Error()
	for _, want := range []string{"shrunk", "func TestRepro_", "injected oracle bug"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("failure report missing %q:\n%s", want, msg)
		}
	}
	// The shrunk scenario in the report must be at the predicate's floor.
	if !strings.Contains(msg, "vms=3") {
		t.Fatalf("shrinker did not minimize VMs to 3:\n%s", msg)
	}
}

type injectedBug struct{}

func (*injectedBug) Error() string { return "injected oracle bug" }
