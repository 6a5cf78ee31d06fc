package check

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/vm"
)

// AuditLedger replays the provenance ledger's mapping-moving events and
// cross-checks the implied final location of every tracked guest mapping
// against the hypervisor's page tables — the "explain ≡ reality" property:
// a frame history rendered by `pageforge explain` must end where the page
// actually is.
//
// Replay semantics: a merged or CoW-broken event moves the (VM, GFN)
// mapping to its Arg frame (the merge target / the private copy); an evicted
// or ballooned event removes the mapping from tracking — the page may later
// be demand-reallocated by a guest write, which is an allocation, not a
// lifecycle transition, so reclaimed mappings leave the audit's scope until
// an engine event picks them up again. Mappings whose last event is a move
// must resolve to exactly that frame at the end of the run.
//
// The audit is sound only over a complete history: a wrapped ring (dropped
// events) or a mapping-moving event with an unresolved VM would make the
// replay guess, so it reports audited=false instead of failing.
func AuditLedger(l *obs.Ledger, hv *vm.Hypervisor) (mappings int, audited bool, err error) {
	if !l.Enabled() || l.Dropped() > 0 {
		return 0, false, nil
	}
	type key struct {
		vm  int32
		gfn uint64
	}
	loc := map[key]uint64{}
	for _, e := range l.Events() {
		switch e.Kind {
		case obs.LKMerged, obs.LKCoWBroken:
			if e.VM < 0 {
				return 0, false, nil
			}
			loc[key{e.VM, e.GFN}] = e.Arg
		case obs.LKEvicted, obs.LKBallooned:
			delete(loc, key{e.VM, e.GFN})
		}
	}
	keys := make([]key, 0, len(loc))
	for k := range loc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].vm != keys[j].vm {
			return keys[i].vm < keys[j].vm
		}
		return keys[i].gfn < keys[j].gfn
	})
	for _, k := range keys {
		want := loc[k]
		pfn, ok := hv.VM(int(k.vm)).Resolve(vm.GFN(k.gfn))
		if !ok {
			return len(keys), true, fmt.Errorf(
				"check: ledger audit: vm%d gfn%d last moved to frame %d but is no longer present",
				k.vm, k.gfn, want)
		}
		if uint64(pfn) != want {
			return len(keys), true, fmt.Errorf(
				"check: ledger audit: vm%d gfn%d resolves to frame %d, ledger replay says %d",
				k.vm, k.gfn, pfn, want)
		}
	}
	return len(keys), true, nil
}
