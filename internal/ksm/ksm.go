// Package ksm is a from-scratch implementation of RedHat's Kernel Same-page
// Merging (Algorithm 1 in the paper): a scanner that walks all mergeable
// guest pages in passes, searches a stable tree of merged (CoW) pages and
// an unstable tree of recently-unchanged pages — both indexed by page
// contents — and merges duplicates.
//
// The algorithmic state (trees, per-page hash keys in dense per-VM slabs,
// merge bookkeeping) is factored into Algorithm so that two frontends can
// drive it:
//
//   - Scanner (this package): the software implementation, paying for every
//     byte compared and hashed with core cycles, exactly like the KSM
//     kthread the paper measures against.
//   - pageforge.Driver: the OS driver of the PageForge hardware, which
//     walks the same trees through the memory-controller Scan Table.
package ksm

import (
	"encoding/binary"
	"sync/atomic"

	"repro/internal/hash"
	"repro/internal/mem"
	"repro/internal/rbtree"
	"repro/internal/vm"
)

// Hasher computes the per-page hash key KSM uses to detect page changes
// between passes, and reports the number of page bytes a computation reads
// (the "memory footprint" of key generation the paper compares in §6.2).
// PageKey reads only the first Span bytes of its PageSize-byte page, so
// HashCheck fills no more than that.
type Hasher interface {
	PageKey(page []byte) uint32
	BytesRead() int
	Span() int
}

// JHasher is KSM's hash: jhash2 over the first 1KB of the page.
type JHasher struct{}

// PageKey implements Hasher.
func (JHasher) PageKey(page []byte) uint32 { return hash.PageHash(page) }

// BytesRead implements Hasher: jhash reads 1KB of consecutive page data.
func (JHasher) BytesRead() int { return hash.KSMDigestBytes }

// Span implements Hasher: the 1KB jhash reads is the page's first.
func (JHasher) Span() int { return hash.KSMDigestBytes }

// rmapItem is KSM's per-page tracking state: the hash key Algorithm 1
// recorded for the page on its last pass, and the page it describes, so an
// unstable-tree node can point at its item (a pointer into the VM's slab,
// which never moves) and still resolve the page. Items live in dense
// per-VM slabs (Algorithm.items), 16 bytes each; an item that holds no
// hash is indistinguishable from one never made.
type rmapItem struct {
	id      vm.PageID
	oldHash uint32
	hasHash bool
}

// Stats are the /sys/kernel/mm/ksm-style counters plus the instrumentation
// the paper's evaluation needs.
type Stats struct {
	FullScans      uint64 // completed passes over all mergeable pages
	PagesScanned   uint64 // candidate pages processed
	StableMerges   uint64 // merges into an existing stable page
	UnstableMerges uint64 // merges that promoted an unstable pair
	FailedMerges   uint64 // racing-write aborts
	HashMatches    uint64 // candidate hash equal to previous pass
	HashMismatches uint64 // candidate changed since previous pass (dropped)
	HashFirstSeen  uint64 // first scan of a page (no previous hash)
	StaleUnstable  uint64 // unstable matches invalidated before merge
	StablePruned   uint64 // stable nodes dropped after last sharer left
	ZeroMerges     uint64 // always 0: kept because result digests hash every Stats field
	SmartSkips     uint64 // always 0: kept because result digests hash every Stats field
	FaultFallbacks uint64 // candidates completed in software after a hardware UE abort
}

// Algorithm is the engine-independent state of the KSM algorithm. The
// stable and unstable trees are sharded by a content-key prefix (ShardOf);
// the default single shard reproduces classic KSM exactly, while 2^k
// shards let a scan pass fan out across workers (Scanner.ScanPass) because
// every operation a candidate performs stays inside its own shard.
type Algorithm struct {
	HV       *vm.Hypervisor
	Stable   *rbtree.Sharded
	Unstable *rbtree.Sharded
	Hasher   Hasher

	// items[vm][gfn] tracks one guest page. A VM's slab is made, sized to
	// the whole VM, the first time one of its pages needs an item: VM IDs
	// are never reused and VM sizes never change, so a slab never grows.
	// Sharded scan workers only read the slab headers (PrepareItems makes
	// them first) and each writes the items of its own candidates only.
	items     [][]rmapItem
	order     []vm.PageID // scan order over mergeable pages
	curs      int
	pass      uint64
	shardBits int
	maxCmp    []int // per-shard deepest-comparison tracker

	stale []*rbtree.Node // EndPass's prune buffer, reused every pass

	// hashBufs[shard] is the page buffer HashCheck reads a candidate of
	// that shard into, made on the shard's first check. A shard's
	// candidates are checked by one worker at a time, so its buffer is
	// never shared.
	hashBufs [][]byte

	Stats Stats
}

// bump atomically increments a statistics counter. Scan workers of a
// sharded pass update the same Stats struct concurrently; sums of
// increments are order-independent, so totals stay bit-identical to a
// sequential pass.
func bump(ctr *uint64) { atomic.AddUint64(ctr, 1) }

// NewAlgorithm builds single-shard (classic KSM) algorithm state over a
// hypervisor. The scan order covers every currently-mergeable page of every
// VM; call RefreshOrder if madvise regions change later.
func NewAlgorithm(hv *vm.Hypervisor, h Hasher) *Algorithm {
	return NewAlgorithmSharded(hv, h, 0)
}

// NewAlgorithmSharded builds algorithm state with 2^shardBits content
// shards. shardBits 0 is exactly NewAlgorithm: one tree pair, identical
// shapes and counters.
func NewAlgorithmSharded(hv *vm.Hypervisor, h Hasher, shardBits int) *Algorithm {
	if shardBits < 0 || shardBits > 16 {
		panic("ksm: shardBits out of range")
	}
	n := 1 << shardBits
	a := &Algorithm{
		HV:        hv,
		Hasher:    h,
		pass:      1,
		shardBits: shardBits,
		maxCmp:    make([]int, n),
		hashBufs:  make([][]byte, n),
	}
	mk := func(shard int) *rbtree.Tree {
		return rbtree.New(func(x, y mem.PFN) (int, int) {
			c, nb := hv.Phys.ComparePage(x, y)
			if nb > a.maxCmp[shard] {
				a.maxCmp[shard] = nb
			}
			return c, nb
		})
	}
	route := func(pfn mem.PFN) int { return a.ShardOf(pfn) }
	a.Stable = rbtree.NewSharded(n, route, mk)
	a.Unstable = rbtree.NewSharded(n, route, mk)
	a.RefreshOrder()
	return a
}

// ShardOf routes a frame to a shard by the top shardBits bits of its first
// 8 content bytes read big-endian — a memcmp-order-preserving prefix, so
// equal pages always share a shard and the shard order is the content
// order. All-zero pages route to shard 0.
func (a *Algorithm) ShardOf(pfn mem.PFN) int {
	if a.shardBits == 0 {
		return 0
	}
	var prefix [8]byte
	a.HV.Phys.ReadAt(pfn, 0, prefix[:])
	key := binary.BigEndian.Uint64(prefix[:])
	return int(key >> (64 - uint(a.shardBits)))
}

// ShardBits reports log2 of the shard count.
func (a *Algorithm) ShardBits() int { return a.shardBits }

// TakeMaxCmp reports the deepest single comparison on the shard since the
// last call and resets the tracker. Software KSM keeps the candidate page
// cached, so the candidate's DRAM traffic per candidate is its deepest
// read, not the sum over every tree level.
func (a *Algorithm) TakeMaxCmp(shard int) int {
	m := a.maxCmp[shard]
	a.maxCmp[shard] = 0
	return m
}

// RefreshOrder rebuilds the list of mergeable pages to scan.
func (a *Algorithm) RefreshOrder() {
	a.order = a.HV.AppendMergeable(a.order[:0])
	if a.curs >= len(a.order) {
		a.curs = 0
	}
}

// MergeablePages reports how many pages are in the scan order.
func (a *Algorithm) MergeablePages() int { return len(a.order) }

// OrderSnapshot exposes the scan order for pass fan-out. Callers must treat
// it as read-only.
func (a *Algorithm) OrderSnapshot() []vm.PageID { return a.order }

// PrepareItems makes the item slab of every VM with a page in the scan
// order. A parallel pass calls it before spawning workers so the slab
// table is never written concurrently — workers then only read it.
func (a *Algorithm) PrepareItems() {
	for _, id := range a.order {
		a.slab(id.VM)
	}
}

// Pass reports the current pass number (starting at 1).
func (a *Algorithm) Pass() uint64 { return a.pass }

// NextCandidate advances the cursor and returns the next mergeable page to
// consider. It reports passEnded=true when the cursor wraps, at which point
// the caller must call EndPass before continuing (Algorithm 1 resets the
// unstable tree between passes).
func (a *Algorithm) NextCandidate() (id vm.PageID, passEnded bool, ok bool) {
	if len(a.order) == 0 {
		return vm.PageID{}, false, false
	}
	id = a.order[a.curs]
	a.curs++
	if a.curs == len(a.order) {
		a.curs = 0
		return id, true, true
	}
	return id, false, true
}

// EndPass destroys the unstable tree ("throw away and regenerate") and
// prunes stable nodes whose frames no longer have any guest mappers.
func (a *Algorithm) EndPass() {
	// Drop the per-node frame references held by the unstable tree.
	a.Unstable.InOrder(func(n *rbtree.Node) bool {
		a.HV.Phys.DecRef(n.PFN)
		return true
	})
	a.Unstable.Reset()

	// Prune stable nodes nobody maps anymore (their only reference is the
	// tree's own hold).
	stale := a.stale[:0]
	a.Stable.InOrder(func(n *rbtree.Node) bool {
		if !a.HV.Mapped(n.PFN) {
			stale = append(stale, n)
		}
		return true
	})
	for _, n := range stale {
		a.Stable.Delete(n)
		a.HV.Phys.DecRef(n.PFN)
		bump(&a.Stats.StablePruned)
	}
	// Drop the pruned nodes so the buffer does not keep them alive.
	clear(stale)
	a.stale = stale[:0]
	a.pass++
	bump(&a.Stats.FullScans)
}

// item returns the tracking state for a page, making its VM's slab if
// needed.
func (a *Algorithm) item(id vm.PageID) *rmapItem { return &a.slab(id.VM)[id.GFN] }

// slab returns the VM's item slab, making it on first use.
func (a *Algorithm) slab(vmID int32) []rmapItem {
	if int(vmID) < len(a.items) && a.items[vmID] != nil {
		return a.items[vmID]
	}
	for len(a.items) <= int(vmID) {
		a.items = append(a.items, nil)
	}
	v := a.HV.VM(int(vmID))
	s := make([]rmapItem, v.Pages())
	for g := range s {
		s[g].id = v.PageID(vm.GFN(g))
	}
	a.items[vmID] = s
	return s
}

// SkipCandidate reports whether the candidate should be skipped outright:
// not present (never touched) or already a merged KSM page.
func (a *Algorithm) SkipCandidate(id vm.PageID) bool {
	pfn, ok := a.HV.Resolve(id)
	if !ok {
		return true
	}
	f := a.HV.Phys.Get(pfn)
	return f.CoW() && f.Refs() > 1 // already sharing a stable page
}

// HashOutcome classifies one hash change-detection check. The lifecycle
// ledger cares about the three-way split: only HashChanged is wasted work
// attributable to content churn (a first sighting is warm-up, not waste).
type HashOutcome uint8

const (
	HashFirst   HashOutcome = iota // first sighting: no previous key
	HashSame                       // key matches the previous pass
	HashChanged                    // key differs: the page churned
)

// Changed reports whether the outcome precludes an unstable-tree search.
func (o HashOutcome) Changed() bool { return o != HashSame }

// recordKey updates a page's hash-tracking state with a freshly computed
// key and classifies the check — the shared body of HashCheck and
// RecordHash.
func (a *Algorithm) recordKey(it *rmapItem, key uint32) HashOutcome {
	var out HashOutcome
	switch {
	case !it.hasHash:
		bump(&a.Stats.HashFirstSeen)
		out = HashFirst
	case it.oldHash == key:
		bump(&a.Stats.HashMatches)
		out = HashSame
	default:
		bump(&a.Stats.HashMismatches)
		out = HashChanged
	}
	it.oldHash = key
	it.hasHash = true
	return out
}

// HashCheck computes the candidate's hash key and compares it with the key
// from the previous pass, recording the new key either way. Only HashSame
// permits the unstable-tree search. It also reports the bytes hashed. The
// key is computed over the hasher's Span of the page, read into the
// candidate's shard buffer, so a seeded page is never materialized.
func (a *Algorithm) HashCheck(id vm.PageID) (HashOutcome, int) {
	pfn, ok := a.HV.Resolve(id)
	if !ok {
		return HashChanged, 0
	}
	shard := a.ShardOf(pfn)
	buf := a.hashBufs[shard]
	if buf == nil {
		buf = make([]byte, mem.PageSize)
		a.hashBufs[shard] = buf
	}
	a.HV.Phys.ReadAt(pfn, 0, buf[:a.Hasher.Span()])
	key := a.Hasher.PageKey(buf)
	return a.recordKey(a.item(id), key), a.Hasher.BytesRead()
}

// RecordHash stores an externally computed hash key (the PageForge driver
// receives the key from hardware instead of computing it) and classifies
// the change check.
func (a *Algorithm) RecordHash(id vm.PageID, key uint32) HashOutcome {
	return a.recordKey(a.item(id), key)
}

// MergeIntoStable merges the candidate with the stable node's frame.
func (a *Algorithm) MergeIntoStable(id vm.PageID, node *rbtree.Node) (bytes int, ok bool) {
	n, err := a.HV.Merge(id, node.PFN)
	if err != nil {
		bump(&a.Stats.FailedMerges)
		return n, false
	}
	bump(&a.Stats.StableMerges)
	return n, true
}

// ValidUnstableMatch checks that an unstable node still describes a live
// page mapping (the unstable tree is allowed to go stale).
func (a *Algorithm) ValidUnstableMatch(node *rbtree.Node) bool {
	it, _ := node.Item.(*rmapItem)
	if it == nil {
		return false
	}
	pfn, ok := a.HV.Resolve(it.id)
	return ok && pfn == node.PFN
}

// MergeWithUnstable merges the candidate with an unstable-tree match,
// promoting the merged frame into the stable tree (Algorithm 1 lines
// 14-17). On success the unstable node is removed.
func (a *Algorithm) MergeWithUnstable(id vm.PageID, node *rbtree.Node) (bytes int, ok bool) {
	if !a.ValidUnstableMatch(node) {
		bump(&a.Stats.StaleUnstable)
		a.removeUnstable(node)
		return 0, false
	}
	n, err := a.HV.Merge(id, node.PFN)
	if err != nil {
		bump(&a.Stats.FailedMerges)
		return n, false
	}
	pfn := node.PFN
	a.removeUnstable(node)
	// The stable tree takes its own reference so the node stays valid even
	// if every sharer later CoW-breaks away. A stable node carries no
	// payload: nothing reads one back.
	a.HV.Phys.IncRef(pfn)
	a.Stable.Insert(pfn, nil)
	bump(&a.Stats.UnstableMerges)
	return n, true
}

func (a *Algorithm) removeUnstable(node *rbtree.Node) {
	a.Unstable.Delete(node)
	a.HV.Phys.DecRef(node.PFN)
}

// UnstableInsert places the candidate into the unstable tree (no match was
// found during the caller's search). The tree holds a frame reference until
// the pass ends.
func (a *Algorithm) UnstableInsert(id vm.PageID) *rbtree.Node {
	pfn, ok := a.HV.Resolve(id)
	if !ok {
		return nil
	}
	a.HV.Phys.IncRef(pfn)
	return a.Unstable.Insert(pfn, a.item(id))
}

// UnstableSearchOrInsert is the software path: one tree descent that either
// finds a content-equal node or inserts the candidate.
func (a *Algorithm) UnstableSearchOrInsert(id vm.PageID) (match *rbtree.Node, inserted bool) {
	pfn, ok := a.HV.Resolve(id)
	if !ok {
		return nil, false
	}
	a.HV.Phys.IncRef(pfn)
	n, ins := a.Unstable.InsertOrGet(pfn, a.item(id))
	if !ins {
		// Not inserted: drop the speculative reference.
		a.HV.Phys.DecRef(pfn)
		return n, false
	}
	return nil, true
}

// SharingStats reports pages_shared (stable frames with >1 mapper is the
// paper's merged state; we report frames referenced by the stable tree that
// have at least one mapper) and pages_sharing (guest pages mapping them).
func (a *Algorithm) SharingStats() (shared, sharing int) {
	a.Stable.InOrder(func(n *rbtree.Node) bool {
		m := a.HV.MapperCount(n.PFN)
		if m > 0 {
			shared++
			sharing += m
		}
		return true
	})
	return shared, sharing
}
