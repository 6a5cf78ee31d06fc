package ksm

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/rbtree"
)

// fullPass runs one complete scan pass over every mergeable page.
func fullPass(s *Scanner) {
	for i := 0; i < s.Alg.MergeablePages(); i++ {
		s.ScanOne()
	}
}

// convergedWorld builds a world with two distinct duplicate groups, scans it
// to steady state, and returns the scanner.
func convergedWorld(t *testing.T) *Scanner {
	t.Helper()
	h, _ := world(t, 64, []byte{7, 8, 3}, []byte{7, 8, 5})
	s := newScanner(h)
	for p := 0; p < 3; p++ {
		fullPass(s)
	}
	if s.Alg.Stable.Size() < 2 {
		t.Fatalf("setup: stable size %d, want >= 2", s.Alg.Stable.Size())
	}
	return s
}

// stablePFNs collects the stable tree's frames in order.
func stablePFNs(a *Algorithm) []mem.PFN {
	var out []mem.PFN
	a.Stable.InOrder(func(n *rbtree.Node) bool { out = append(out, n.PFN); return true })
	return out
}

func TestVerifyRecoveredAcceptsHealthyState(t *testing.T) {
	s := convergedWorld(t)
	a := s.Alg

	// Snapshot everything the audit must not perturb.
	cmpBefore := a.Stable.Shard(0).Comparisons
	bytesBefore := a.Stable.Shard(0).BytesCompared
	statsBefore := a.Stats

	stats, err := a.VerifyRecovered()
	if err != nil {
		t.Fatalf("healthy state failed recovery verification: %v", err)
	}
	if stats.StableNodes != a.Stable.Size() {
		t.Fatalf("audited %d stable nodes, tree has %d", stats.StableNodes, a.Stable.Size())
	}
	if stats.HintGroups == 0 || stats.FramesAudited == 0 {
		t.Fatalf("audit did no work: %+v", stats)
	}

	// Counter neutrality: a verification must be free in simulated cost, or
	// a recovered run could never be bit-identical to an uninterrupted one.
	if a.Stable.Shard(0).Comparisons != cmpBefore || a.Stable.Shard(0).BytesCompared != bytesBefore {
		t.Fatalf("verification charged tree counters: %d/%d -> %d/%d",
			cmpBefore, bytesBefore, a.Stable.Shard(0).Comparisons, a.Stable.Shard(0).BytesCompared)
	}
	if a.Stats != statsBefore {
		t.Fatalf("verification perturbed scan stats: %+v -> %+v", statsBefore, a.Stats)
	}
}

func TestVerifyRecoveredDetectsFalseMergeState(t *testing.T) {
	s := convergedWorld(t)
	a := s.Alg
	pfns := stablePFNs(a)
	// Corrupt the "restored" state: two distinct stable nodes now carry
	// identical contents, so the next lookup would split a merge group. The
	// copy goes straight to physical memory, bypassing CoW — exactly what a
	// botched restore would produce. Equal contents pass the structural
	// order check (it only rejects inversions), so only the
	// hint-then-verify content audit can catch this.
	a.HV.Phys.CopyPage(pfns[1], pfns[0])

	_, err := a.VerifyRecovered()
	if err == nil {
		t.Fatal("duplicate stable contents passed recovery verification")
	}
	if !strings.Contains(err.Error(), "false merge state") {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestVerifyRecoveredDetectsRefcountMismatch(t *testing.T) {
	s := convergedWorld(t)
	a := s.Alg
	a.HV.Phys.IncRef(stablePFNs(a)[0])

	_, err := a.VerifyRecovered()
	if err == nil {
		t.Fatal("refcount ledger imbalance passed recovery verification")
	}
	if !strings.Contains(err.Error(), "refcount ledger") {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestVerifyRecoveredAfterStateRoundTrip(t *testing.T) {
	s := convergedWorld(t)
	a := s.Alg
	st, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetState(st); err != nil {
		t.Fatal(err)
	}
	if _, err := a.VerifyRecovered(); err != nil {
		t.Fatalf("round-tripped state failed recovery verification: %v", err)
	}
}
