package faults

import "sort"

// Host-crash injection. A crash is not a DRAM fault — it kills the whole
// engine mid-convergence — but it belongs to the same deterministic fault
// vocabulary: the schedule is fixed up front (drawn by the workload
// generator or configured by an experiment), so two runs with the same
// plan crash at exactly the same convergence passes.

// CrashPlan is the consumable crash schedule of one run: a sorted queue of
// the 0-based convergence passes at whose boundary the host dies, popped as
// the convergence loop reaches them. A pass listed twice models
// back-to-back crashes within one re-arm window: the host comes back up,
// recovers, and dies again at the same boundary before taking another
// checkpoint.
type CrashPlan struct {
	queue []int
}

// NewCrashPlan builds a plan crashing at the given passes. Negative passes
// are dropped; the rest are sorted ascending so replayed boundaries (which
// re-run earlier passes after a restore) never re-fire a consumed crash.
func NewCrashPlan(passes []int) *CrashPlan {
	p := &CrashPlan{}
	for _, pass := range passes {
		if pass >= 0 {
			p.queue = append(p.queue, pass)
		}
	}
	sort.Ints(p.queue)
	return p
}

// FireAt reports whether the host crashes at the given pass boundary,
// consuming the crash if so. Each scheduled crash fires at most once; a
// pass listed twice fires twice (the second on the replayed boundary).
func (p *CrashPlan) FireAt(pass int) bool {
	if len(p.queue) == 0 || p.queue[0] != pass {
		return false
	}
	p.queue = p.queue[1:]
	return true
}

// Add schedules one more crash at the given pass boundary, keeping the
// queue sorted so replayed boundaries never re-fire a consumed crash. It is
// how a live event stream injects a crash into an already-armed plan;
// negative passes are ignored.
func (p *CrashPlan) Add(pass int) {
	if pass < 0 {
		return
	}
	i := sort.SearchInts(p.queue, pass)
	p.queue = append(p.queue, 0)
	copy(p.queue[i+1:], p.queue[i:])
	p.queue[i] = pass
}
