package ksm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/rbtree"
)

// Post-crash recovery verification. A restored dedup index is only
// trustworthy if it cannot produce a false merge: every stable node must
// name a live frame, no two stable nodes may carry identical contents (the
// next lookup would route a candidate to whichever the descent finds
// first, silently splitting a merge group), and the refcount ledger must
// balance against the rmap plus the engine's own holds. The content check
// follows the ESX hint-then-verify discipline: cheap 64-bit content hints
// group the nodes, and only hint collisions pay a full software compare —
// the same fallback path PR 2 gave the driver.

// RecoveryStats summarizes one recovery verification.
type RecoveryStats struct {
	StableNodes   int    // stable-tree nodes audited
	HintGroups    int    // distinct content hints observed
	Verifies      int    // software page compares performed
	BytesVerified uint64 // bytes those compares examined
	FramesAudited int    // allocated frames whose refcounts were checked
}

// VerifyRecovered audits the algorithm state against physical memory after
// a restore. It is counter-neutral: the structural walk and the software
// verifies charge nothing to the trees' comparison counters or the
// per-shard deepest-comparison trackers, so running it cannot perturb a
// bit-exact resume. A non-nil error means the recovered index is corrupt
// and must not be resumed from.
func (a *Algorithm) VerifyRecovered() (RecoveryStats, error) {
	// Snapshot every counter the audit could touch: CheckInvariants descends
	// with the raw comparator, which feeds the maxCmp trackers, and the trees'
	// cost counters are simulation state.
	savedMax := append([]int(nil), a.maxCmp...)
	type treeCtrs struct{ cmp, bytes uint64 }
	save := func(s *rbtree.Sharded) []treeCtrs {
		out := make([]treeCtrs, s.NumShards())
		for i := range out {
			t := s.Shard(i)
			out[i] = treeCtrs{cmp: t.Comparisons, bytes: t.BytesCompared}
		}
		return out
	}
	restore := func(s *rbtree.Sharded, ctrs []treeCtrs) {
		for i, c := range ctrs {
			t := s.Shard(i)
			t.Comparisons, t.BytesCompared = c.cmp, c.bytes
		}
	}
	stableCtrs, unstableCtrs := save(a.Stable), save(a.Unstable)
	defer func() {
		copy(a.maxCmp, savedMax)
		restore(a.Stable, stableCtrs)
		restore(a.Unstable, unstableCtrs)
	}()

	var st RecoveryStats

	// 1. Structural integrity: red-black shape, per-shard content order,
	// cross-shard prefix routing.
	if err := a.Stable.CheckInvariants(); err != nil {
		return st, fmt.Errorf("ksm: recovered stable tree: %w", err)
	}
	if err := a.Unstable.CheckInvariants(); err != nil {
		return st, fmt.Errorf("ksm: recovered unstable tree: %w", err)
	}

	// 2. Hint-then-verify content audit of the stable index.
	phys := a.HV.Phys
	hints := map[uint64][]mem.PFN{}
	var walkErr error
	a.Stable.InOrder(func(n *rbtree.Node) bool {
		st.StableNodes++
		if !phys.Allocated(n.PFN) {
			walkErr = fmt.Errorf("ksm: stable node references unallocated frame %d", n.PFN)
			return false
		}
		h := phys.ContentKey(n.PFN)
		for _, other := range hints[h] {
			// Hint collision: resolve in software like the driver's fallback.
			same, nb := phys.SamePage(n.PFN, other)
			st.Verifies++
			st.BytesVerified += uint64(nb)
			if same {
				walkErr = fmt.Errorf("ksm: false merge state: stable frames %d and %d hold identical contents", other, n.PFN)
				return false
			}
		}
		hints[h] = append(hints[h], n.PFN)
		return true
	})
	if walkErr != nil {
		return st, walkErr
	}
	st.HintGroups = len(hints)

	// 3. Refcount ledger: every allocated frame's refcount must equal its
	// guest mappers plus the engine's holds (stable nodes, unstable nodes,
	// and the permanent zero-frame reference).
	holds := map[mem.PFN]int{}
	a.Stable.InOrder(func(n *rbtree.Node) bool { holds[n.PFN]++; return true })
	a.Unstable.InOrder(func(n *rbtree.Node) bool { holds[n.PFN]++; return true })
	if zf, ok := a.ZeroPFN(); ok {
		holds[zf]++
	}
	for pfn := mem.PFN(0); int(pfn) < phys.TotalFrames(); pfn++ {
		if !phys.Allocated(pfn) {
			continue
		}
		st.FramesAudited++
		want := a.HV.MapperCount(pfn) + holds[pfn]
		if got := phys.Get(pfn).Refs(); got != want {
			return st, fmt.Errorf("ksm: refcount ledger mismatch on frame %d: refs=%d, mappers+holds=%d",
				pfn, got, want)
		}
	}
	return st, nil
}
