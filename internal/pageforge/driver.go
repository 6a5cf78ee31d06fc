package pageforge

import (
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rbtree"
	"repro/internal/vm"
)

// sentinelBase is the first Less/More value used to mark out-of-batch
// children. The hardware treats any index >= NumOtherPages as invalid but
// reports it in Ptr, letting the OS identify which subtree to load next.
const sentinelBase = NumOtherPages + 1

// DriverConfig tunes the OS side of PageForge.
type DriverConfig struct {
	// PollInterval is how often the OS checks the Scan Table (Table 5:
	// 12,000 cycles).
	PollInterval uint64
	// PollCost is the core cycles one get_PFE_info check consumes.
	PollCost uint64
	// BatchSetupCost is the core cycles to fill the table for one batch
	// (up to 31 insert_PPN calls plus the PFE update).
	BatchSetupCost uint64
	// MergeCost is the core cycles of the hypervisor remap on a merge.
	MergeCost uint64
	// BatchEntries caps how many Other Pages entries the driver loads per
	// batch (0 or > NumOtherPages means the full table). Smaller values
	// model a cheaper Scan Table (§4's design-space discussion).
	BatchEntries int
	// FallbackCost is the core cycles of the software path taken when the
	// hardware aborts a candidate on an uncorrectable error: re-reading
	// the page through the core and running the software compare/jhash.
	FallbackCost uint64
}

// DefaultDriverConfig follows Table 5.
func DefaultDriverConfig() DriverConfig {
	return DriverConfig{
		PollInterval:   12_000,
		PollCost:       60,
		BatchSetupCost: 250,
		MergeCost:      3_000,
		FallbackCost:   12_000,
	}
}

// batchEntries resolves the configured batch size.
func (c DriverConfig) batchEntries() int {
	if c.BatchEntries <= 0 || c.BatchEntries > NumOtherPages {
		return NumOtherPages
	}
	return c.BatchEntries
}

// Driver is the OS/hypervisor side of PageForge: it implements the KSM
// algorithm (Section 3.4) but delegates page comparison, tree traversal,
// and hash-key generation to the hardware engine. Its own core-cycle
// consumption — the overhead the paper shows to be minimal — is tracked in
// CoreCycles.
type Driver struct {
	Alg *ksm.Algorithm
	HW  *Engine
	Cfg DriverConfig

	// Trace receives per-search and per-merge events when enabled.
	Trace obs.Scope

	// Ledger receives merge-lifecycle events when enabled. The driver is
	// strictly sequential, so it appends directly.
	Ledger *obs.Ledger

	// CoreCycles is the total processor time consumed by the driver
	// (polls, table refills, merge bookkeeping).
	CoreCycles uint64
	// Batches counts Scan Table loads; Polls counts get_PFE_info checks.
	Batches uint64
	Polls   uint64
	// SWFallbacks counts candidates completed on the software path after
	// the hardware aborted on an uncorrectable error; QuarantineSkips
	// counts candidates skipped because their frame is quarantined.
	SWFallbacks     uint64
	QuarantineSkips uint64

	// quarantine holds physical frames the UE policy has withdrawn from
	// hardware scanning and merging. Quarantine is by frame — the faulty
	// cells are physical — so it survives frame reuse, like kernel page
	// offlining.
	quarantine map[mem.PFN]struct{}

	// queue and sentinels are loadBatch's reused scratch: the BFS queue,
	// whose first entries are the loaded batch, and the out-of-batch
	// children indexed by sentinel - sentinelBase.
	queue     []*rbtree.Node
	sentinels []*rbtree.Node
}

// NewDriver builds a driver over shared KSM algorithm state and a hardware
// engine. The Algorithm's Hasher is used only on the UE fallback path (the
// hardware generates ECC keys); pass ksm.JHasher{} or ECCHasher.
func NewDriver(alg *ksm.Algorithm, hw *Engine, cfg DriverConfig) *Driver {
	return &Driver{Alg: alg, HW: hw, Cfg: cfg, quarantine: make(map[mem.PFN]struct{})}
}

// Quarantined reports whether the frame is excluded from hardware
// scanning and merging.
func (d *Driver) Quarantined(pfn mem.PFN) bool {
	_, ok := d.quarantine[pfn]
	return ok
}

// QuarantinedFrames reports how many frames the UE policy has withdrawn.
func (d *Driver) QuarantinedFrames() int { return len(d.quarantine) }

func (d *Driver) quarantinePFN(pfn mem.PFN) {
	d.quarantine[pfn] = struct{}{}
}

// searchResult is the outcome of one hardware tree search.
type searchResult struct {
	match *rbtree.Node // non-nil when the hardware found a duplicate
	now   uint64       // wall-clock cycle after the search completed
	fault bool         // the hardware aborted on an uncorrectable error
}

// loadBatch fills the Scan Table with the BFS expansion of the non-nil
// subtree at root. It returns the loaded nodes (batch[i] is table entry i) and the
// out-of-batch children, where sentinels[k] is the subtree reported as Ptr
// sentinelBase+k; no sentinels means the whole subtree fit, so this batch
// can be final. Both slices are driver scratch, valid until the next call.
func (d *Driver) loadBatch(root *rbtree.Node) (batch, sentinels []*rbtree.Node) {
	limit := d.Cfg.batchEntries()
	queue, sentinels := append(d.queue[:0], root), d.sentinels[:0]
	// In BFS order a child is enqueued at the index it will occupy in the
	// batch, so the index is known the moment the child is linked: below
	// limit it is in the table, otherwise it becomes the next sentinel.
	link := func(child *rbtree.Node) int {
		if child == nil {
			return InvalidIndex
		}
		if i := len(queue); i < limit {
			queue = append(queue, child)
			return i
		}
		sentinels = append(sentinels, child)
		return sentinelBase + len(sentinels) - 1
	}
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		d.HW.InsertPPN(i, n.PFN, link(n.Left()), link(n.Right()))
	}
	d.queue, d.sentinels = queue, sentinels
	d.Batches++
	d.CoreCycles += d.Cfg.BatchSetupCost
	return queue, sentinels
}

// runBatch triggers the hardware and polls until Scanned, advancing the
// wall clock in PollInterval steps (the OS checks the table periodically;
// Table 5 shows the batch is typically done by the first check).
func (d *Driver) runBatch(now uint64) (PFEInfo, uint64) {
	d.HW.Trigger(now)
	for {
		now += d.Cfg.PollInterval
		d.Polls++
		d.CoreCycles += d.Cfg.PollCost
		info := d.HW.GetPFEInfo(now)
		if info.Scanned {
			return info, now
		}
	}
}

// searchTree drives the hardware search of one red-black tree. The stable
// search comes first for each candidate, so its first batch inserts the PFE
// (insert_PFE resets the background hash), and the hash key must complete
// during it (Section 3.4); the unstable search only updates the PFE.
func (d *Driver) searchTree(cand mem.PFN, root *rbtree.Node, now uint64, stable bool) (res searchResult, notFound bool) {
	start, batchesBefore := now, d.Batches
	defer func() {
		if d.Trace.Enabled() {
			name := "stable_search"
			if !stable {
				name = "unstable_search"
			}
			d.Trace.Complete(obs.TIDDriver, "scan", name, start, res.now-start, "batches", d.Batches-batchesBefore)
		}
	}()
	first := stable
	node := root
	for node != nil {
		batch, sentinels := d.loadBatch(node)
		last := stable && len(sentinels) == 0
		if first {
			d.HW.InsertPFE(cand, last, 0)
			first = false
		} else {
			d.HW.UpdatePFE(last, 0)
		}
		info, t := d.runBatch(now)
		now = t
		if info.Fault {
			return searchResult{now: now, fault: true}, true
		}
		if info.Duplicate {
			if info.Ptr < 0 || info.Ptr >= len(batch) {
				panic("pageforge: hardware reported duplicate at invalid Ptr")
			}
			return searchResult{match: batch[info.Ptr], now: now}, false
		}
		if k := info.Ptr - sentinelBase; k >= 0 && k < len(sentinels) {
			node = sentinels[k] // traversal left the table: continue in that subtree
			continue
		}
		break // genuine leaf edge: not in this tree
	}
	if node == nil && root == nil && first {
		// Empty tree and the PFE was never inserted: insert it so the hash
		// machinery has a candidate to work on.
		d.HW.InsertPFE(cand, false, InvalidIndex)
	}
	// Key must be finished even if the search ended early or the tree was
	// empty: one empty reload with Last Refill forces it (Section 3.3.1).
	if stable && !d.HW.GetPFEInfo(now).HashReady {
		d.HW.UpdatePFE(true, InvalidIndex)
		info, t := d.runBatch(now)
		now = t
		if info.Fault {
			return searchResult{now: now, fault: true}, true
		}
	}
	return searchResult{now: now}, true
}

// verifyMatch re-runs the comparison of candidate and match in hardware
// after both pages have been write-protected — the algorithm's "second
// comparison ... to protect against racing writes" — using a single-entry
// Scan Table batch. It reports whether the pages are still identical.
func (d *Driver) verifyMatch(id vm.PageID, cand, match mem.PFN, now uint64) (bool, uint64) {
	d.Alg.HV.WriteProtect(cand)
	d.Alg.HV.WriteProtect(match)
	d.HW.InsertPPN(0, match, InvalidIndex, InvalidIndex)
	d.HW.UpdatePFE(false, 0)
	info, t := d.runBatch(now)
	if info.Fault {
		// The hardware cannot verify: the kernel re-compares in software
		// (demand reads go through their own correction/retry path) and
		// the candidate frame is quarantined from future hardware passes.
		d.SWFallbacks++
		d.Alg.Stats.FaultFallbacks++
		d.quarantinePFN(cand)
		if d.Ledger.Enabled() {
			d.Ledger.Append(obs.LedgerEvent{Kind: obs.LKQuarantined, Cause: obs.CauseFaultRetry, VM: id.VM, GFN: uint64(id.GFN), PFN: uint64(cand)})
		}
		d.CoreCycles += d.Cfg.FallbackCost
		same, _ := d.Alg.HV.Phys.SamePage(cand, match)
		if !same {
			d.Alg.HV.Unprotect(cand)
		}
		return same, t + d.Cfg.FallbackCost
	}
	if !info.Duplicate {
		// Raced: the candidate is not being merged, so it must become
		// writable again (the match keeps its protection, as in software
		// KSM's abort path).
		d.Alg.HV.Unprotect(cand)
	}
	return info.Duplicate, t
}

// faultFallback completes a candidate whose hardware batch aborted on an
// uncorrectable error. The kernel takes over in software — re-reading the
// page through the core's corrected demand path, probing the stable tree
// with the software comparator, and (when recordHash is set) running
// jhash so the pass's change-detection state stays coherent — and then
// quarantines the frame from future hardware scanning. Unstable-tree
// participation is skipped: a frame that just poisoned the engine is not
// worth advertising as a merge target.
func (d *Driver) faultFallback(id vm.PageID, pfn mem.PFN, recordHash bool, now uint64) (bool, uint64) {
	d.SWFallbacks++
	d.Alg.Stats.FaultFallbacks++
	d.quarantinePFN(pfn)
	ldg := d.Ledger.Enabled()
	if ldg {
		d.Ledger.Append(obs.LedgerEvent{Kind: obs.LKQuarantined, Cause: obs.CauseFaultRetry, VM: id.VM, GFN: uint64(id.GFN), PFN: uint64(pfn)})
	}
	d.CoreCycles += d.Cfg.FallbackCost
	now += d.Cfg.FallbackCost
	if d.Trace.Enabled() {
		d.Trace.Instant(obs.TIDRAS, "ras", "sw_fallback", now, "pfn", uint64(pfn))
	}
	a := d.Alg
	if node := a.Stable.Lookup(pfn); node != nil && node.PFN != pfn {
		// Merging into stable releases the suspect frame: its mappers are
		// repointed at the stable copy and the bad cells leave service.
		stablePFN := uint64(node.PFN)
		if _, mok := a.MergeIntoStable(id, node); mok {
			d.CoreCycles += d.Cfg.MergeCost
			if ldg {
				d.Ledger.Append(obs.LedgerEvent{Kind: obs.LKMerged, VM: id.VM, GFN: uint64(id.GFN), PFN: uint64(pfn), Arg: stablePFN})
			}
			return true, now
		}
		if ldg {
			d.Ledger.Append(obs.LedgerEvent{Kind: obs.LKMergeFailed, Cause: obs.CauseFaultRetry, VM: id.VM, GFN: uint64(id.GFN), PFN: uint64(pfn), Arg: stablePFN})
		}
		return false, now
	}
	if recordHash {
		a.HashCheck(id)
	}
	return false, now
}

// ScanOne processes one candidate page, mirroring ksm.Scanner.ScanOne but
// with every comparison and hash executed by the hardware. It returns the
// wall-clock cycle when the candidate is finished.
func (d *Driver) ScanOne(now uint64) (merged bool, doneAt uint64, ok bool) {
	a := d.Alg
	id, passEnded, ok := a.NextCandidate()
	if !ok {
		return false, now, false
	}
	if passEnded {
		defer a.EndPass()
	}
	a.Stats.PagesScanned++
	d.CoreCycles += d.Cfg.PollCost // candidate selection bookkeeping
	if d.Trace.Enabled() {
		defer func() {
			if merged {
				d.Trace.Instant(obs.TIDDriver, "merge", "merge", doneAt, "gfn", uint64(id.GFN))
			}
		}()
	}

	if a.SkipCandidate(id) {
		return false, now, true
	}
	pfn, okr := a.HV.Resolve(id)
	if !okr {
		return false, now, true
	}
	if d.Quarantined(pfn) {
		// The UE policy withdrew this frame from hardware scanning.
		d.QuarantineSkips++
		return false, now, true
	}
	ldg := d.Ledger.Enabled()
	if ldg {
		d.Ledger.Append(obs.LedgerEvent{Kind: obs.LKScanned, VM: id.VM, GFN: uint64(id.GFN), PFN: uint64(pfn)})
	}

	// Stable-tree search in hardware; the ECC hash key is generated in the
	// background during this search.
	res, notFound := d.searchTree(pfn, a.Stable.For(pfn).Root(), now, true)
	now = res.now
	if res.fault {
		merged, t := d.faultFallback(id, pfn, true, now)
		return merged, t, true
	}
	if !notFound && res.match.PFN != pfn {
		stablePFN := uint64(res.match.PFN)
		same, t := d.verifyMatch(id, pfn, res.match.PFN, now)
		now = t
		if !same {
			a.Stats.FailedMerges++
			if ldg {
				d.Ledger.Append(obs.LedgerEvent{Kind: obs.LKMergeFailed, Cause: obs.CauseChecksumInstability, VM: id.VM, GFN: uint64(id.GFN), PFN: uint64(pfn), Arg: stablePFN})
			}
			return false, now, true
		}
		if _, mok := a.MergeIntoStable(id, res.match); mok {
			d.CoreCycles += d.Cfg.MergeCost
			if ldg {
				d.Ledger.Append(obs.LedgerEvent{Kind: obs.LKMerged, VM: id.VM, GFN: uint64(id.GFN), PFN: uint64(pfn), Arg: stablePFN})
			}
			return true, now, true
		}
		if ldg {
			d.Ledger.Append(obs.LedgerEvent{Kind: obs.LKMergeFailed, Cause: obs.CauseChecksumInstability, VM: id.VM, GFN: uint64(id.GFN), PFN: uint64(pfn), Arg: stablePFN})
		}
		return false, now, true
	}

	// Not in the stable tree: compare the hardware-generated key with the
	// previous pass's key.
	info := d.HW.GetPFEInfo(now)
	if info.Fault {
		merged, t := d.faultFallback(id, pfn, true, now)
		return merged, t, true
	}
	if !info.HashReady {
		panic("pageforge: hash key not ready after stable search")
	}
	if outcome := a.RecordHash(id, info.Hash); outcome.Changed() {
		if ldg && outcome == ksm.HashChanged {
			d.Ledger.Append(obs.LedgerEvent{Kind: obs.LKChurned, Cause: obs.CauseContentChurn, VM: id.VM, GFN: uint64(id.GFN), PFN: uint64(pfn)})
		}
		return false, now, true
	}

	// Unstable-tree search in hardware.
	res, notFound = d.searchTree(pfn, a.Unstable.For(pfn).Root(), now, false)
	now = res.now
	if res.fault {
		merged, t := d.faultFallback(id, pfn, false, now)
		return merged, t, true
	}
	if !notFound {
		matchPFN := uint64(res.match.PFN)
		if !a.ValidUnstableMatch(res.match) {
			a.Stats.StaleUnstable++
			if ldg {
				d.Ledger.Append(obs.LedgerEvent{Kind: obs.LKMergeFailed, Cause: obs.CauseChecksumInstability, VM: id.VM, GFN: uint64(id.GFN), PFN: uint64(pfn), Arg: matchPFN})
			}
			return false, now, true
		}
		same, t := d.verifyMatch(id, pfn, res.match.PFN, now)
		now = t
		if !same {
			a.Stats.FailedMerges++
			if ldg {
				d.Ledger.Append(obs.LedgerEvent{Kind: obs.LKMergeFailed, Cause: obs.CauseChecksumInstability, VM: id.VM, GFN: uint64(id.GFN), PFN: uint64(pfn), Arg: matchPFN})
			}
			return false, now, true
		}
		if _, mok := a.MergeWithUnstable(id, res.match); mok {
			d.CoreCycles += d.Cfg.MergeCost
			if ldg {
				d.Ledger.Append(obs.LedgerEvent{Kind: obs.LKMerged, VM: id.VM, GFN: uint64(id.GFN), PFN: uint64(pfn), Arg: matchPFN})
				d.Ledger.Append(obs.LedgerEvent{Kind: obs.LKStable, VM: -1, PFN: matchPFN})
			}
			return true, now, true
		}
		if ldg {
			d.Ledger.Append(obs.LedgerEvent{Kind: obs.LKMergeFailed, Cause: obs.CauseChecksumInstability, VM: id.VM, GFN: uint64(id.GFN), PFN: uint64(pfn), Arg: matchPFN})
		}
		return false, now, true
	}
	if a.UnstableInsert(id) != nil && ldg {
		d.Ledger.Append(obs.LedgerEvent{Kind: obs.LKUnstable, VM: id.VM, GFN: uint64(id.GFN), PFN: uint64(pfn)})
	}
	return false, now, true
}

// ScanBatch processes up to n candidates starting at cycle now, and starts
// none at or after cycle end — one work interval of pages_to_scan pages
// inside its wall-clock window (pass math.MaxUint64 for no deadline). It
// returns the number scanned and merged and the cycle at which the
// interval's work completed.
func (d *Driver) ScanBatch(n int, now, end uint64) (scanned, mergedCount int, doneAt uint64) {
	for scanned < n && now < end {
		merged, t, ok := d.ScanOne(now)
		if !ok {
			break
		}
		now = t
		scanned++
		if merged {
			mergedCount++
		}
	}
	return scanned, mergedCount, now
}

// RunToSteadyState drives full passes until a pass completes no new merges
// (or maxPasses), sharing ksm.RunConvergence's pass-counting semantics
// with the software scanner.
func (d *Driver) RunToSteadyState(maxPasses int) int {
	now := uint64(0)
	return ksm.RunConvergence(d.Alg, maxPasses, func() bool {
		_, t, ok := d.ScanOne(now)
		if ok {
			now = t
		}
		return ok
	})
}
