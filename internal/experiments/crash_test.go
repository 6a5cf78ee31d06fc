package experiments

import (
	"strings"
	"testing"
)

// TestCrashSweepShape runs a 2x2 corner of the grid and checks the sweep
// tells the recovery story: the crash fires, a checkpoint restores, replay
// re-merges destroyed work, the recovery audit runs, and the recovered run
// is bit-identical to the uninterrupted one. (crashPoint itself fails on
// any identity violation.)
func TestCrashSweepShape(t *testing.T) {
	r, err := crashSweep(NewFastSuite(), []int{1, 2}, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.Identical {
			t.Fatalf("crash@%d every=%d: not identical: %+v", row.CrashPass, row.Every, row)
		}
		if row.Crashes != 1 || row.Restores != 1 {
			t.Fatalf("crash@%d every=%d: crash never fired: %+v", row.CrashPass, row.Every, row)
		}
		if row.RecoveryCycles == 0 {
			t.Fatalf("crash@%d every=%d: recovery charged nothing: %+v", row.CrashPass, row.Every, row)
		}
		// A periodic checkpoint (taken after at least one full pass) holds a
		// populated stable tree for the recovery audit; the boot checkpoint
		// legitimately audits an empty index.
		if row.Every > 0 && row.StableVerified == 0 {
			t.Fatalf("crash@%d every=%d: recovery audit did no work: %+v", row.CrashPass, row.Every, row)
		}
		if row.Intervals == 0 || row.ContentChecks == 0 {
			t.Fatalf("crash@%d every=%d: invariant checker did no work: %+v", row.CrashPass, row.Every, row)
		}
	}
	// Boot-only checkpointing must replay strictly more passes than dense
	// checkpointing for the same late crash point.
	var bootReplay, denseReplay int
	for _, row := range r.Rows {
		if row.CrashPass == 2 && row.Every == 0 {
			bootReplay = row.ReplayedPasses
		}
		if row.CrashPass == 2 && row.Every == 2 {
			denseReplay = row.ReplayedPasses
		}
	}
	if bootReplay <= denseReplay {
		t.Fatalf("boot-only replay %d not worse than every-2 replay %d", bootReplay, denseReplay)
	}
	if out := r.String(); !strings.Contains(out, "identical") {
		t.Fatalf("rendering lost the identity column:\n%s", out)
	}
}

// TestCrashPointRejectsUnfiredCrash: a crash scheduled after the world has
// converged never fires, so the point must fail with an error naming the
// crash pass and the converged pass count instead of printing a row that
// claims a recovery it never ran.
func TestCrashPointRejectsUnfiredCrash(t *testing.T) {
	_, err := crashSweep(NewFastSuite(), []int{5}, []int{1})
	if err == nil {
		t.Fatal("crash scheduled past convergence produced a row")
	}
	if msg := err.Error(); !strings.Contains(msg, "crash pass 5") || !strings.Contains(msg, "converged after") {
		t.Fatalf("error does not name the crash pass and the converged passes: %v", err)
	}
}
