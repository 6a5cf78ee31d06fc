// Package esx implements a second same-page merging algorithm — the
// hash-indexed scheme of VMware's ESX Server (Waldspurger, OSDI 2002),
// which the paper discusses in §7.2 — both in software and on top of the
// PageForge hardware. It exists to demonstrate §4.2's generality claim:
// the Scan Table is not tied to KSM's trees; with every entry's Less and
// More pointing at the next entry, the hardware walks an arbitrary *list*
// of candidate pages, which is exactly what a hash bucket is.
//
// The algorithm: each scanned page is hashed over its full contents.
//   - If the hash matches a *shared* (already-merged, CoW) frame, the page
//     is compared exhaustively against the bucket and merged on a match.
//   - Otherwise the hash is remembered as a *hint*. When a later page hits
//     the same hint, the hint page is re-hashed (it is not write-protected
//     and may have changed); if it still matches, the two pages are
//     compared and merged into a new shared frame.
//
// Unlike KSM there are no per-pass trees to rebuild; the price is a full-
// page hash per scanned page instead of KSM's 1KB checksum.
package esx

import (
	"repro/internal/hash"
	"repro/internal/mem"
	"repro/internal/vm"
)

// PageHash64 hashes a full page to 64 bits (two jhash2 passes with
// independent seeds, mirroring ESX's 64-bit frame hashes).
func PageHash64(page []byte) uint64 {
	lo := hash.JHash2Bytes(page, 0x9747b28c)
	hi := hash.JHash2Bytes(page, 0x7feb352d)
	return uint64(hi)<<32 | uint64(lo)
}

// Stats counts algorithm activity.
type Stats struct {
	PagesScanned   uint64
	HintInserts    uint64 // first sighting of a content hash
	HintUpdates    uint64 // hint page had changed; hash re-recorded
	HintPromotions uint64 // hint matched: two pages merged into a shared frame
	SharedMerges   uint64 // page merged into an existing shared frame
	FailedMerges   uint64 // hash collision or racing write: full compare said no
	Comparisons    uint64
	BytesCompared  uint64
	BytesHashed    uint64
}

// hint tracks an unshared page whose hash, its key in Table.hints, has
// been seen once.
type hint struct {
	id  vm.PageID
	pfn mem.PFN
}

// Comparer abstracts who performs the exhaustive comparisons: the software
// scanner or the PageForge hardware in list mode.
type Comparer interface {
	// SamePage exhaustively compares the candidate frame against each frame
	// in others (in order), returning the index of the first identical
	// frame or -1, plus the bytes examined.
	SamePage(cand mem.PFN, others []mem.PFN) (match int, bytes int)
}

// Table is the ESX-style hint/shared hash table over a hypervisor.
type Table struct {
	HV  *vm.Hypervisor
	Cmp Comparer

	hints  map[uint64]hint
	shared map[uint64][]mem.PFN // buckets: hash collisions are possible
	order  []vm.PageID
	curs   int
	page   []byte // the buffer pages are read into for hashing

	Stats Stats
}

// New builds the algorithm state; cmp decides the comparison engine.
func New(hv *vm.Hypervisor, cmp Comparer) *Table {
	t := &Table{HV: hv, Cmp: cmp, hints: make(map[uint64]hint), shared: make(map[uint64][]mem.PFN), page: make([]byte, mem.PageSize)}
	t.RefreshOrder()
	return t
}

// RefreshOrder rebuilds the scan order over mergeable pages.
func (t *Table) RefreshOrder() {
	t.order = t.HV.AppendMergeable(t.order[:0])
	if t.curs >= len(t.order) {
		t.curs = 0
	}
}

// MergeablePages reports the scan-order length.
func (t *Table) MergeablePages() int { return len(t.order) }

// SharedFrames reports how many distinct shared frames the table tracks.
func (t *Table) SharedFrames() int {
	n := 0
	for _, bucket := range t.shared {
		n += len(bucket)
	}
	return n
}

// pageHash hashes the frame's bytes, read into the table's buffer so that
// a seeded frame is not materialized.
func (t *Table) pageHash(pfn mem.PFN) uint64 {
	t.HV.Phys.ReadAt(pfn, 0, t.page)
	return PageHash64(t.page)
}

// ScanOne processes the next page in the scan order.
func (t *Table) ScanOne() (merged bool, ok bool) {
	if len(t.order) == 0 {
		return false, false
	}
	id := t.order[t.curs]
	t.curs = (t.curs + 1) % len(t.order)
	t.Stats.PagesScanned++

	pfn, present := t.HV.Resolve(id)
	if !present {
		return false, true
	}
	frame := t.HV.Phys.Get(pfn)
	if frame.CoW() && frame.Refs() > 1 {
		return false, true // already a shared frame
	}

	h := t.pageHash(pfn)
	t.Stats.BytesHashed += mem.PageSize

	// 1. Try the shared frames with this hash.
	if bucket := t.liveBucket(h); len(bucket) > 0 {
		match, bytes := t.Cmp.SamePage(pfn, bucket)
		t.Stats.Comparisons += uint64(len(bucket))
		t.Stats.BytesCompared += uint64(bytes)
		if match >= 0 {
			if _, err := t.HV.Merge(id, bucket[match]); err == nil {
				t.Stats.SharedMerges++
				return true, true
			}
			t.Stats.FailedMerges++
			return false, true
		}
		// Full collision: same 64-bit hash, different contents. Fall
		// through to the hint path.
	}

	// 2. Try the hint.
	if hn, okh := t.hints[h]; okh && hn.id != id {
		if hpfn, live := t.HV.Resolve(hn.id); live && hpfn == hn.pfn {
			// Re-hash the hint page: it is not write-protected.
			t.Stats.BytesHashed += mem.PageSize
			if t.pageHash(hpfn) == h {
				match, bytes := t.Cmp.SamePage(pfn, []mem.PFN{hpfn})
				t.Stats.Comparisons++
				t.Stats.BytesCompared += uint64(bytes)
				if match == 0 {
					if _, err := t.HV.Merge(id, hpfn); err == nil {
						// The hint's frame is now a shared frame.
						t.HV.Phys.IncRef(hpfn) // table's own hold
						t.shared[h] = append(t.shared[h], hpfn)
						delete(t.hints, h)
						t.Stats.HintPromotions++
						return true, true
					}
					t.Stats.FailedMerges++
					return false, true
				}
				// 64-bit collision with different data: keep the old hint.
				t.Stats.FailedMerges++
				return false, true
			}
			// Hint page changed since recorded: this candidate becomes the
			// new hint for h.
			t.hints[h] = hint{id: id, pfn: pfn}
			t.Stats.HintUpdates++
			return false, true
		}
		// Hint page vanished or was remapped; replace it.
		t.hints[h] = hint{id: id, pfn: pfn}
		t.Stats.HintUpdates++
		return false, true
	}

	// 3. First sighting.
	t.hints[h] = hint{id: id, pfn: pfn}
	t.Stats.HintInserts++
	return false, true
}

// liveBucket prunes shared frames that lost all guest mappers (dropping
// the table's hold) and returns the live ones.
func (t *Table) liveBucket(h uint64) []mem.PFN {
	bucket := t.shared[h]
	live := bucket[:0]
	for _, pfn := range bucket {
		if t.HV.Mapped(pfn) {
			live = append(live, pfn)
		} else {
			t.HV.Phys.DecRef(pfn)
		}
	}
	if len(live) == 0 {
		delete(t.shared, h)
		return nil
	}
	t.shared[h] = live
	return live
}

// PruneShared drops shared frames that no guest page maps anymore,
// releasing the table's hold on them. ScanOne prunes lazily on bucket
// lookups; this full sweep runs at pass boundaries so frames whose content
// never recurs are also reclaimed.
func (t *Table) PruneShared() {
	for h := range t.shared {
		t.liveBucket(h)
	}
}

// RunToSteadyState performs full scans until one completes with no merge
// (after the second pass), returning the number of passes. Dead shared
// frames are pruned at each pass boundary.
func (t *Table) RunToSteadyState(maxPasses int) int {
	for p := 0; p < maxPasses; p++ {
		merges := t.Stats.SharedMerges + t.Stats.HintPromotions
		n := t.MergeablePages()
		if n == 0 {
			return p
		}
		for i := 0; i < n; i++ {
			if _, ok := t.ScanOne(); !ok {
				return p
			}
		}
		t.PruneShared()
		if t.Stats.SharedMerges+t.Stats.HintPromotions == merges && p > 0 {
			return p + 1
		}
	}
	return maxPasses
}

// SoftwareComparer compares pages on a core (byte-wise through Phys).
type SoftwareComparer struct {
	Phys *mem.Phys
}

// SamePage implements Comparer.
func (c SoftwareComparer) SamePage(cand mem.PFN, others []mem.PFN) (int, int) {
	total := 0
	for i, o := range others {
		same, n := c.Phys.SamePage(cand, o)
		total += n
		if same {
			return i, total
		}
	}
	return -1, total
}
