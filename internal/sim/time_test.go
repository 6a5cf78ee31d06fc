package sim

import "testing"

func TestTimeConversions(t *testing.T) {
	if got := MillisToCycles(5); got != 10_000_000 {
		t.Errorf("MillisToCycles(5) = %d, want 10e6", got)
	}
}
