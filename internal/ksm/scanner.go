package ksm

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/vm"
)

// Costs models what the software KSM kthread pays, in core cycles, for each
// primitive. The defaults are calibrated so that the per-candidate cycle
// breakdown matches Table 4 of the paper (on average ~52% of KSM cycles in
// page comparison, ~15% in hash generation, the rest in bookkeeping).
type Costs struct {
	// CyclesPerCompareByte is the cost of the byte-wise content comparison
	// including average memory stalls (comparison streams cold data).
	CyclesPerCompareByte float64
	// CyclesPerHashByte is the cost of jhash2 per input byte.
	CyclesPerHashByte float64
	// CandidateOverhead is the fixed per-candidate cost: rmap lookups,
	// locking, page-table walks, cursor advance.
	CandidateOverhead uint64
	// MergeOverhead is the fixed cost of a successful merge: remapping,
	// write protection, TLB shootdown.
	MergeOverhead uint64
}

// DefaultCosts reflects a 2 GHz OoO core running the KSM kthread over cold
// page data: both comparison and hashing are memory-stall dominated
// (~0.6 bytes/cycle/page for the dual-stream compare, ~0.5 B/cycle for
// jhash), and each candidate pays rmap lookups, locking, and page-table
// walks. With the evaluation's content profile this lands each candidate
// at roughly 52% compare / 15% hash / 33% bookkeeping and the kthread at
// ~6-7% of total machine cycles — Table 4's measured breakdown.
func DefaultCosts() Costs {
	return Costs{
		CyclesPerCompareByte: 2.0,
		CyclesPerHashByte:    4.4,
		CandidateOverhead:    6900,
		MergeOverhead:        4000,
	}
}

// CycleBreakdown attributes the scanner's core cycles to the categories
// Table 4 reports.
type CycleBreakdown struct {
	Compare uint64 // page comparisons (stable + unstable search + final)
	Hash    uint64 // hash key generation
	Other   uint64 // bookkeeping, merging overhead
}

// Total sums all categories.
func (c CycleBreakdown) Total() uint64 { return c.Compare + c.Hash + c.Other }

// Scanner is the software KSM frontend: it runs the algorithm on a core,
// charging cycles and cache footprint for every byte it touches.
type Scanner struct {
	Alg   *Algorithm
	Costs Costs

	// Trace receives merge events when enabled. The scanner has no wall
	// clock of its own — TraceNow supplies the platform's current cycle for
	// event timestamps (events are emitted untimed when it is nil).
	Trace    obs.Scope
	TraceNow func() uint64

	// Ledger receives merge-lifecycle events when enabled. Workers of a
	// parallel pass never touch it directly: events ride the per-shard
	// accumulators and flush in canonical shard order at the join, so the
	// sequence is deterministic at any worker count (shard-major under
	// ScanPass, scan-order under sequential ScanOne).
	Ledger *obs.Ledger

	// Cycles is the cumulative core-cycle consumption, broken down.
	Cycles CycleBreakdown
	// BytesTouched is the page data streamed through the core's caches
	// (compare + hash traffic) — the source of the L3 pollution the paper
	// measures in Table 4.
	BytesTouched uint64
	// DRAMBytes is the memory traffic the scan actually draws from DRAM:
	// tree pages are cold, but the candidate page stays cached between
	// comparisons, so it contributes only its deepest read, and the hash
	// reads only the part of its 1KB prefix the comparisons did not
	// already fetch.
	DRAMBytes uint64

	// ScanPass state kept across passes: per-shard candidate queues and
	// accumulators, the next unclaimed shard, and the worker body that the
	// pass's extra goroutines run.
	queues     [][]vm.PageID
	accts      []scanAcct
	nextShard  atomic.Int32
	wg         sync.WaitGroup
	scanShards func()
}

// NewScanner wraps algorithm state with software cost accounting.
func NewScanner(alg *Algorithm, costs Costs) *Scanner {
	return &Scanner{Alg: alg, Costs: costs}
}

// scanAcct accumulates one candidate's (or one whole shard's) cost
// accounting. Sequential scanning applies it to the Scanner's totals after
// every candidate; a parallel pass gives each shard its own accumulator and
// merges them in shard order at the join, so totals are sums of the same
// per-candidate uint64 charges in both modes — bit-identical.
type scanAcct struct {
	cycles       CycleBreakdown
	bytesTouched uint64
	dramBytes    uint64
	merged       int // candidates merged (counted by ScanPass workers)
	events       []obs.LedgerEvent
}

// event buffers one lifecycle event for the flush at apply time.
func (ac *scanAcct) event(e obs.LedgerEvent) { ac.events = append(ac.events, e) }

// apply folds an accumulator into the scanner's cumulative counters and
// flushes its buffered lifecycle events.
func (s *Scanner) apply(ac *scanAcct) {
	s.Cycles.Compare += ac.cycles.Compare
	s.Cycles.Hash += ac.cycles.Hash
	s.Cycles.Other += ac.cycles.Other
	s.BytesTouched += ac.bytesTouched
	s.DRAMBytes += ac.dramBytes
	if len(ac.events) > 0 {
		s.Ledger.AppendAll(ac.events)
		ac.events = ac.events[:0]
	}
}

// BatchResult summarizes one work interval (pages_to_scan candidates) or
// one full ScanPass.
type BatchResult struct {
	Scanned   int
	Merged    int
	Cycles    CycleBreakdown
	Bytes     uint64
	PassEnded bool
}

// ScanBatch processes up to n candidate pages — one KSM work interval. The
// caller (the platform scheduler) charges the returned cycles to whichever
// core the kthread is running on.
func (s *Scanner) ScanBatch(n int) BatchResult {
	before := s.Cycles
	bytesBefore := s.BytesTouched
	var res BatchResult
	for i := 0; i < n; i++ {
		merged, passEnded, ok := s.ScanOne()
		if !ok {
			break
		}
		res.Scanned++
		if merged {
			res.Merged++
		}
		if passEnded {
			res.PassEnded = true
		}
	}
	res.Cycles = CycleBreakdown{
		Compare: s.Cycles.Compare - before.Compare,
		Hash:    s.Cycles.Hash - before.Hash,
		Other:   s.Cycles.Other - before.Other,
	}
	res.Bytes = s.BytesTouched - bytesBefore
	return res
}

// ScanOne processes a single candidate page through Algorithm 1.
func (s *Scanner) ScanOne() (merged, passEnded, ok bool) {
	a := s.Alg
	id, passEnded, ok := a.NextCandidate()
	if !ok {
		return false, false, false
	}
	if passEnded {
		defer a.EndPass()
	}
	var ac scanAcct
	merged = s.scanCandidate(id, &ac)
	s.apply(&ac)
	return merged, passEnded, true
}

// scanCandidate runs Algorithm 1 for one candidate, charging all costs to
// ac. It is the shared body of sequential ScanOne and parallel ScanPass
// workers; everything it touches beyond ac is either confined to the
// candidate's content shard or updated commutatively (atomic counters).
func (s *Scanner) scanCandidate(id vm.PageID, ac *scanAcct) (merged bool) {
	a := s.Alg
	bump(&a.Stats.PagesScanned)
	ac.cycles.Other += s.Costs.CandidateOverhead
	if s.Trace.Enabled() {
		defer func() {
			if merged {
				var ts uint64
				if s.TraceNow != nil {
					ts = s.TraceNow()
				}
				s.Trace.Instant(obs.TIDDriver, "merge", "merge", ts, "gfn", uint64(id.GFN))
			}
		}()
	}

	if a.SkipCandidate(id) {
		return false
	}
	ldg := s.Ledger.Enabled()
	var candPFN uint64
	if ldg {
		if p, rok := a.HV.Resolve(id); rok {
			candPFN = uint64(p)
			ac.event(obs.LedgerEvent{Kind: obs.LKScanned, VM: id.VM, GFN: uint64(id.GFN), PFN: candPFN})
		} else {
			ldg = false
		}
	}
	pfn, okr := a.HV.Resolve(id)
	if !okr {
		return false
	}

	// All tree work for this candidate happens on its content shard; the
	// shard's deepest-comparison tracker brackets it for DRAM accounting.
	shard := a.ShardOf(pfn)
	a.TakeMaxCmp(shard)
	hashed := 0
	defer func() {
		// Candidate-page DRAM contribution: deepest read, plus the part of
		// the hash prefix not covered by it.
		deepest := a.TakeMaxCmp(shard)
		ac.dramBytes += uint64(deepest)
		if hashed > deepest {
			ac.dramBytes += uint64(hashed - deepest)
		}
	}()

	// Search the stable tree (Algorithm 1 line 7).
	stable := a.Stable.Shard(shard)
	cmpBytes := stable.BytesCompared
	node := stable.Lookup(pfn)
	s.chargeCompare(ac, stable.BytesCompared-cmpBytes)

	if node != nil && node.PFN != pfn {
		stablePFN := uint64(node.PFN)
		n, mok := a.MergeIntoStable(id, node)
		s.chargeVerify(ac, uint64(n)) // the final write-protected compare
		if mok {
			ac.cycles.Other += s.Costs.MergeOverhead
			if ldg {
				ac.event(obs.LedgerEvent{Kind: obs.LKMerged, VM: id.VM, GFN: uint64(id.GFN), PFN: candPFN, Arg: stablePFN})
			}
			return true
		}
		if ldg {
			ac.event(obs.LedgerEvent{Kind: obs.LKMergeFailed, Cause: obs.CauseChecksumInstability, VM: id.VM, GFN: uint64(id.GFN), PFN: candPFN, Arg: stablePFN})
		}
		return false
	}

	// Not in the stable tree: hash-based change detection (lines 11-12).
	outcome, bytesRead := a.HashCheck(id)
	hashed = bytesRead
	s.chargeHash(ac, uint64(bytesRead))
	if outcome.Changed() {
		// Modified since last pass (or first sighting): drop it (line 22).
		if ldg && outcome == HashChanged {
			ac.event(obs.LedgerEvent{Kind: obs.LKChurned, Cause: obs.CauseContentChurn, VM: id.VM, GFN: uint64(id.GFN), PFN: candPFN})
		}
		return false
	}

	// Search the unstable tree, inserting on miss (lines 13-20).
	unstable := a.Unstable.Shard(shard)
	cmpBytes = unstable.BytesCompared
	match, inserted := a.UnstableSearchOrInsert(id)
	s.chargeCompare(ac, unstable.BytesCompared-cmpBytes)
	if match != nil {
		matchPFN := uint64(match.PFN)
		n, mok := a.MergeWithUnstable(id, match)
		s.chargeVerify(ac, uint64(n))
		if mok {
			ac.cycles.Other += s.Costs.MergeOverhead
			if ldg {
				ac.event(obs.LedgerEvent{Kind: obs.LKMerged, VM: id.VM, GFN: uint64(id.GFN), PFN: candPFN, Arg: matchPFN})
				ac.event(obs.LedgerEvent{Kind: obs.LKStable, VM: -1, PFN: matchPFN})
			}
			return true
		}
		if ldg {
			ac.event(obs.LedgerEvent{Kind: obs.LKMergeFailed, Cause: obs.CauseChecksumInstability, VM: id.VM, GFN: uint64(id.GFN), PFN: candPFN, Arg: matchPFN})
		}
		return false
	}
	if ldg && inserted {
		ac.event(obs.LedgerEvent{Kind: obs.LKUnstable, VM: id.VM, GFN: uint64(id.GFN), PFN: candPFN})
	}
	return false
}

// ScanPass processes one full pass over every mergeable page, fanning
// candidates out across the algorithm's content shards with a bounded
// worker pool, then ends the pass. The result is bit-identical to scanning
// the same pass sequentially at any worker count: every candidate's tree
// searches, merges, and frame updates are confined to its own content
// shard (merges only ever relate equal-content pages, and equal content
// routes to the same shard), per-shard candidate order follows scan order,
// and the only cross-shard state — statistics sums and the free frames —
// is commutative or flushed in canonical order at the join.
func (s *Scanner) ScanPass(workers int) BatchResult {
	a := s.Alg
	order := a.OrderSnapshot()
	if len(order) == 0 {
		return BatchResult{}
	}
	shards := a.Stable.NumShards()
	if workers < 1 {
		workers = 1
	}
	if workers > shards {
		workers = shards
	}

	// Partition candidates by shard in scan order. Routing reads page
	// content, which nothing mutates during a pass (merges remap pages,
	// guest churn happens between passes), so partition-time routes hold
	// for the whole pass. Unresolved candidates go to shard 0; they are
	// skipped with only fixed overhead, which any shard accounts alike.
	// The queues and accumulators are the scanner's own and are
	// truncated, not reallocated, so a steady-state pass creates no
	// garbage.
	if len(s.queues) != shards {
		s.queues = make([][]vm.PageID, shards)
		s.accts = make([]scanAcct, shards)
	}
	for i := range s.queues {
		s.queues[i] = s.queues[i][:0]
		s.accts[i] = scanAcct{events: s.accts[i].events}
	}
	for _, id := range order {
		shard := 0
		if pfn, ok := a.HV.Resolve(id); ok {
			shard = a.ShardOf(pfn)
		}
		s.queues[shard] = append(s.queues[shard], id)
	}

	// Workers must never mutate lazily-built shared state: materialize the
	// rmap-item map before fan-out.
	a.PrepareItems()

	phys := a.HV.Phys
	phys.BeginDeferredFrees()
	// The caller is one of the workers. The others run the scanner's one
	// closure, built on first use: a go statement on a ready-made func
	// value with no arguments allocates nothing.
	if s.scanShards == nil {
		s.scanShards = func() {
			defer s.wg.Done()
			s.claimShards()
		}
	}
	s.nextShard.Store(0)
	s.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go s.scanShards()
	}
	s.claimShards()
	s.wg.Wait()
	phys.EndDeferredFrees()

	res := BatchResult{Scanned: len(order), PassEnded: true}
	for i := range s.accts {
		ac := &s.accts[i]
		s.apply(ac)
		res.Cycles.Compare += ac.cycles.Compare
		res.Cycles.Hash += ac.cycles.Hash
		res.Cycles.Other += ac.cycles.Other
		res.Bytes += ac.bytesTouched
		res.Merged += ac.merged
	}
	a.curs = 0
	a.EndPass()
	return res
}

// claimShards scans whole shards, claimed one at a time from the pass's
// shared counter, until none is left. Which worker scans a shard does not
// matter: each shard's queue and accumulator are its own.
func (s *Scanner) claimShards() {
	for {
		shard := int(s.nextShard.Add(1)) - 1
		if shard >= len(s.queues) {
			return
		}
		ac := &s.accts[shard]
		for _, id := range s.queues[shard] {
			if s.scanCandidate(id, ac) {
				ac.merged++
			}
		}
	}
}

func (s *Scanner) chargeCompare(ac *scanAcct, bytes uint64) {
	// Both pages are streamed, so the cache footprint is twice the bytes
	// examined on one page. Only the tree page's side is charged to DRAM
	// here; the candidate's side is accounted once per candidate.
	ac.cycles.Compare += uint64(float64(bytes) * s.Costs.CyclesPerCompareByte)
	ac.bytesTouched += 2 * bytes
	ac.dramBytes += bytes
}

// chargeVerify covers the final write-protected re-comparison before a
// merge: it costs core cycles, but both pages were just compared and sit
// in the cache hierarchy, so it draws (almost) nothing from DRAM.
func (s *Scanner) chargeVerify(ac *scanAcct, bytes uint64) {
	ac.cycles.Compare += uint64(float64(bytes) * s.Costs.CyclesPerCompareByte * 0.25)
	ac.bytesTouched += 2 * bytes
}

func (s *Scanner) chargeHash(ac *scanAcct, bytes uint64) {
	ac.cycles.Hash += uint64(float64(bytes) * s.Costs.CyclesPerHashByte)
	ac.bytesTouched += bytes
}

// RunToSteadyState drives full passes until a pass completes with no new
// merges, or maxPasses is reached. It returns the number of passes run.
// Memory-savings experiments (Figure 7) measure after this converges.
func (s *Scanner) RunToSteadyState(maxPasses int) int {
	return RunConvergence(s.Alg, maxPasses, func() bool {
		_, _, ok := s.ScanOne()
		return ok
	})
}
