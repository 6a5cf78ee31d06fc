package platform

import (
	"fmt"

	"repro/internal/dram"
)

// publishMetrics copies every simulation layer's cumulative counters into
// the registry, under stable slash-separated names, so one Snapshot carries
// the whole machine state for metrics.json / -json export. The layers keep
// their own plain counters on the hot paths (an atomic per DRAM access
// would be pure overhead) and the registry is the export boundary. Every
// publish is an idempotent overwrite: the end-of-run call produces the
// exported snapshot, and the per-pass series sampler may call it any number
// of times before that without perturbing the final values.
func (r *Runtime) publishMetrics() {
	reg, mc, dr, ras, ps := r.reg, r.mc, r.dr, r.ras, r.ps

	// Memory controller: demand traffic, PageForge fetch routing, and the
	// ECC pipe.
	ms := mc.Stats
	reg.SetCounter("memctrl/demand_reads", ms.DemandReads)
	reg.SetCounter("memctrl/pf_fetches", ms.PFFetches)
	reg.SetCounter("memctrl/pf_network_hits", ms.PFNetworkHits)
	reg.SetCounter("memctrl/pf_dram_reads", ms.PFDRAMReads)
	// The model has no writes and no coalescing, but perfbench's recorded
	// digests cover every counter name, so these stay published as zeros.
	reg.SetCounter("memctrl/demand_writes", 0)
	reg.SetCounter("memctrl/demand_coalesced", 0)
	reg.SetCounter("memctrl/pf_coalesced", 0)
	reg.SetCounter("memctrl/ecc_encodes", ms.ECCEncodes)
	reg.SetCounter("memctrl/ecc_decodes", ms.ECCDecodes)
	reg.SetCounter("memctrl/ecc_corrected", ms.ECCCorrected)
	reg.SetCounter("memctrl/ecc_uncorrectable", ms.ECCUncorrectable)

	// DRAM: row-buffer outcomes, and per-source traffic/queueing (the
	// Figure 11 decomposition).
	ds := dr.Stats
	reg.SetCounter("dram/reads", ds.Reads)
	reg.SetCounter("dram/writes", ds.Writes)
	reg.SetCounter("dram/row_hits", ds.RowHits)
	reg.SetCounter("dram/row_misses", ds.RowMisses)
	reg.SetCounter("dram/row_closeds", ds.RowCloseds)
	reg.SetGauge("dram/row_hit_rate", dr.RowHitRate())
	for _, s := range dram.Sources() {
		reg.SetCounter("dram/bytes/"+s.String(), ds.BytesBySrc[s])
		reg.SetCounter("dram/accesses/"+s.String(), ds.AccessBySrc[s])
		reg.SetCounter("dram/bank_wait_cycles/"+s.String(), ds.BankWaitBySrc[s])
		reg.SetCounter("dram/bus_wait_cycles/"+s.String(), ds.BusWaitBySrc[s])
	}
	// Per-bank counters, zero banks elided on first publish (geometry is 128
	// banks; runs touch a fraction and an all-zeros dump would drown the
	// snapshot). Once a bank's name exists it keeps being republished even
	// at zero: the series sampler publishes mid-run and a crash restore
	// rewinds the bank counters, so a name published in the doomed timeline
	// must be overwritten with the replayed value — skipping it would leak a
	// stale future value into the next sample's delta.
	for ch, banks := range dr.BankAccesses() {
		hits := dr.BankRowHits()[ch]
		for b, n := range banks {
			name := fmt.Sprintf("dram/bank/%d.%d/accesses", ch, b)
			if n == 0 && !reg.HasCounter(name) {
				continue
			}
			reg.SetCounter(name, n)
			reg.SetCounter(fmt.Sprintf("dram/bank/%d.%d/row_hits", ch, b), hits[b])
		}
	}

	// Hypervisor and arena occupancy: the per-pass series plots its
	// convergence curves from these (merges vs CoW breaks vs allocated
	// frames), so they are published here, not derived from Result fields.
	hv := r.img.HV
	reg.SetCounter("vm/merges", hv.Merges)
	reg.SetCounter("vm/unmerges", hv.Unmerges)
	reg.SetCounter("vm/alloc_stalls", hv.AllocStalls)
	reg.SetGauge("platform/frames_allocated", float64(hv.Phys.AllocatedFrames()))

	// Shared cache.
	l3 := mc.L3
	reg.SetCounter("cache/l3_hits", l3.Hits)
	reg.SetCounter("cache/l3_misses", l3.Misses)
	reg.SetGauge("cache/l3_miss_rate", l3.MissRate())

	// Dedup algorithm outcomes: both engines run on the one algorithm
	// state, so exactly one Stats is live per dedup run.
	if alg := r.alg; alg != nil {
		st := alg.Stats
		reg.SetCounter("ksm/pages_scanned", st.PagesScanned)
		reg.SetCounter("ksm/full_scans", st.FullScans)
		reg.SetCounter("ksm/stable_merges", st.StableMerges)
		reg.SetCounter("ksm/unstable_merges", st.UnstableMerges)
		reg.SetCounter("ksm/failed_merges", st.FailedMerges)
		reg.SetCounter("ksm/hash_matches", st.HashMatches)
		reg.SetCounter("ksm/hash_mismatches", st.HashMismatches)
		reg.SetCounter("ksm/hash_first_seen", st.HashFirstSeen)
		reg.SetCounter("ksm/stale_unstable", st.StaleUnstable)
		reg.SetCounter("ksm/fault_fallbacks", st.FaultFallbacks)
		// No zero-page merging and no smart scan, but perfbench's recorded
		// digests cover every counter name, so these stay published as zeros.
		reg.SetCounter("ksm/zero_merges", 0)
		reg.SetCounter("ksm/smart_skips", 0)
	}
	// The software engine is the live scanner, or else the fallback once
	// one exists: a re-promoted run keeps publishing the cycles its
	// fallback spent, whether or not a series sampled it mid-run.
	scanner := r.scanner
	if scanner == nil {
		scanner = r.fallback
	}
	if scanner != nil {
		reg.SetCounter("ksm/cycles_compare", scanner.Cycles.Compare)
		reg.SetCounter("ksm/cycles_hash", scanner.Cycles.Hash)
		reg.SetCounter("ksm/cycles_other", scanner.Cycles.Other)
		reg.SetCounter("ksm/bytes_touched", scanner.BytesTouched)
		reg.SetCounter("ksm/dram_bytes", scanner.DRAMBytes)
	}
	if driver := r.hwDriver; driver != nil {
		hw := driver.HW
		reg.SetCounter("pageforge/batches", driver.Batches)
		reg.SetCounter("pageforge/polls", driver.Polls)
		reg.SetCounter("pageforge/driver_core_cycles", driver.CoreCycles)
		reg.SetCounter("pageforge/pages_compared", hw.PagesCompared)
		reg.SetCounter("pageforge/compare_early_exits", hw.CompareEarlyExits)
		reg.SetCounter("pageforge/duplicates", hw.Duplicates)
		reg.SetCounter("pageforge/keys_generated", hw.KeysGenerated)
		reg.SetCounter("pageforge/lines_fetched", hw.LinesFetched)
		reg.SetCounter("pageforge/busy_cycles", hw.BusyCycles)
		reg.SetCounter("pageforge/line_retries", hw.LineRetries)
		reg.SetCounter("pageforge/retries_healed", hw.RetriesHealed)
		reg.SetCounter("pageforge/fault_aborts", hw.FaultAborts)
		reg.SetCounter("pageforge/sw_fallbacks", driver.SWFallbacks)
		reg.SetCounter("pageforge/quarantine_skips", driver.QuarantineSkips)
		reg.SetCounter("pageforge/quarantined_frames", uint64(driver.QuarantinedFrames()))
		reg.SetGauge("pageforge/batch_cycles_mean", hw.BatchCycles.Mean())
	}
	if ras != nil {
		ss := ras.scrub.Stats
		reg.SetCounter("scrub/lines", ss.Lines)
		reg.SetCounter("scrub/corrected", ss.Corrected)
		reg.SetCounter("scrub/uncorrectable", ss.Uncorrectable)
		reg.SetCounter("scrub/rewrites", ss.Rewrites)
		reg.SetCounter("scrub/busy_cycles", ss.BusyCycles)
		reg.SetCounter("scrub/wraps", ss.Wraps)
		reg.SetGauge("faults/ue_rate", ras.tracker.Rate())
		reg.SetCounter("faults/tracker_windows", ras.tracker.Windows())
		reg.SetCounter("faults/tracker_recoveries", ras.tracker.Recoveries())
	}
	if ps != nil {
		rep := ps.finalize()
		reg.SetGauge("pressure/level", float64(rep.FinalLevel))
		reg.SetGauge("pressure/ladder_state", float64(rep.Final))
		reg.SetCounter("pressure/alloc_stalls", rep.AllocStalls)
		reg.SetCounter("pressure/balloon_inflated", rep.BalloonInflated)
		reg.SetCounter("pressure/balloon_reclaimed", rep.BalloonReclaimed)
		reg.SetCounter("pressure/scan_throttle", rep.ThrottledPoints)
		reg.SetCounter("pressure/paused_passes", rep.PausedPasses)
		reg.SetCounter("pressure/transitions", uint64(len(rep.Transitions)))
		reg.SetCounter("pressure/burst_pages", rep.BurstPages)
		reg.SetGauge("pressure/min_free_frames", float64(rep.MinFreeFrames))
	}
}
