package experiments

import (
	"fmt"
	"math"

	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/pageforge"
	"repro/internal/vm"
)

// The RAS experiment (an extension beyond the paper's evaluation): PageForge
// reads pages through the DIMM's ECC pipe, so DRAM reliability is not a
// side concern but part of the datapath. This sweep injects an escalating
// fault population into the memory the engine scans and measures what the
// RAS machinery costs and saves: how much merge coverage survives, what the
// bounded re-read and patrol-scrub overheads amount to, and where the
// UE-rate policy would demote the hardware engine to software KSM.

// RASRow is one fault-rate data point.
type RASRow struct {
	// Rate is the per-read double-bit (uncorrectable) fault probability;
	// correlated transient single-bit upsets and stuck-UE words scale with
	// it (see rasFaultConfig).
	Rate float64
	// CoveragePct is merge coverage relative to the fault-free run: frames
	// reclaimed at this rate as a percentage of frames reclaimed at rate 0.
	CoveragePct float64
	// Merged is the absolute number of frames reclaimed.
	Merged int

	LineRetries   uint64
	RetriesHealed uint64
	FaultAborts   uint64
	SWFallbacks   uint64
	Quarantined   int

	// RetryPct is re-read traffic as a share of all engine line fetches;
	// ScrubPct is patrol-scrub bytes as a share of all DRAM bytes — the
	// bandwidth price of the RAS machinery.
	RetryPct float64
	ScrubPct float64

	// UERate is the tracker's smoothed UEs-per-decode estimate at the end.
	UERate float64
	// DegradeInterval is the scan pass at which the default trip policy
	// fires (-1: never) — the measured time-to-degrade.
	DegradeInterval int
}

// RASResult is the sweep.
type RASResult struct {
	Rows []RASRow
	// Passes is the number of full scan passes each point ran.
	Passes int
}

// DefaultRASRates spans clean silicon to an always-faulting DIMM.
func DefaultRASRates() []float64 {
	return []float64{0, 1e-4, 1e-3, 1e-2, 0.1, 1}
}

// rasFaultConfig maps one sweep rate to a fault population: uncorrectable
// double-bit upsets at the rate itself, correctable single-bit transients
// an order of magnitude denser (the empirical DRAM ratio is larger still),
// and a few permanently-dead words appearing as the rate grows.
func rasFaultConfig(seed uint64, rate float64, frames int) faults.Config {
	return faults.Config{
		Seed:             seed ^ 0x4A5C4A5,
		TransientPerRead: math.Min(1, 10*rate),
		DoubleBitPerRead: rate,
		StuckUEWords:     int(rate * 400),
		Frames:           frames,
	}
}

// rasWorld builds the scanned population: VMs sharing a block of cross-VM
// duplicate pages (the achievable merge target) plus per-VM unique pages.
func rasWorld(seed uint64) *vm.Hypervisor {
	const (
		numVMs  = 6
		dupPgs  = 24
		uniqPgs = 8
	)
	hv := vm.NewHypervisor(uint64(numVMs*(dupPgs+uniqPgs)+256) * mem.PageSize)
	for i := 0; i < numVMs; i++ {
		v := hv.NewVM(uint64(dupPgs+uniqPgs) * mem.PageSize)
		v.Madvise(0, dupPgs+uniqPgs, true)
		for g := 0; g < dupPgs; g++ {
			v.Write(vm.GFN(g), 0, satoriPage(seed+uint64(g)*13+1))
		}
		for g := dupPgs; g < dupPgs+uniqPgs; g++ {
			v.Write(vm.GFN(g), 0, satoriPage(seed+uint64(i*1009+g)*7+5))
		}
	}
	return hv
}

// rasPoint runs one fault rate to steady state and collects the row
// (CoveragePct is filled in by the caller, which owns the rate-0 anchor).
func rasPoint(seed uint64, rate float64, passes, scrubBudget int) RASRow {
	hv := rasWorld(seed)
	dr := dram.New(dram.DefaultConfig())
	mc := memctrl.New(dr, hv.Phys, nil)
	if rate > 0 {
		mc.Faults = faults.NewModel(rasFaultConfig(seed, rate, hv.Phys.TotalFrames()))
	}
	drv := pageforge.NewDriver(ksm.NewAlgorithm(hv, ksm.NewECCHasher()),
		pageforge.NewEngine(mc), pageforge.DefaultDriverConfig())
	scrub := &memctrl.Scrubber{MC: mc}
	tracker := faults.NewRateTracker(faults.DefaultTrip())

	before := hv.Phys.AllocatedFrames()
	degradeAt := -1
	var now uint64
	for pass := 0; pass < passes; pass++ {
		_, _, now = drv.ScanBatch(drv.Alg.MergeablePages(), now, math.MaxUint64)
		now = scrub.Step(now, scrubBudget)
		if tracker.Observe(mc.Stats.ECCDecodes, mc.Stats.ECCUncorrectable, uint64(pass)) && degradeAt < 0 {
			degradeAt = pass
		}
	}

	eng := drv.HW
	row := RASRow{
		Rate:            rate,
		Merged:          before - hv.Phys.AllocatedFrames(),
		LineRetries:     eng.LineRetries,
		RetriesHealed:   eng.RetriesHealed,
		FaultAborts:     eng.FaultAborts,
		SWFallbacks:     drv.SWFallbacks,
		Quarantined:     drv.QuarantinedFrames(),
		UERate:          tracker.Rate(),
		DegradeInterval: degradeAt,
	}
	if eng.LinesFetched > 0 {
		row.RetryPct = float64(eng.LineRetries) / float64(eng.LinesFetched) * 100
	}
	var total uint64
	for _, src := range []dram.Source{dram.SrcCore, dram.SrcKSM, dram.SrcPageForge, dram.SrcScrub} {
		total += dr.TotalBytes(src)
	}
	if total > 0 {
		row.ScrubPct = float64(dr.TotalBytes(dram.SrcScrub)) / float64(total) * 100
	}
	return row
}

// RAS sweeps fault rate against merge coverage and RAS overheads. The
// points are independent hermetic worlds sharing the suite's seed; the
// first rate must be 0 (it anchors the coverage normalization) and is
// prepended if missing.
func RAS(s *Suite, rates []float64) (*RASResult, error) {
	if len(rates) == 0 {
		rates = DefaultRASRates()
	}
	if rates[0] != 0 {
		rates = append([]float64{0}, rates...)
	}
	const (
		passes      = 10
		scrubBudget = 512
	)
	for _, rate := range rates {
		if !(rate >= 0 && rate <= 1) { // also rejects NaN
			return nil, fmt.Errorf("experiments: fault rate %g out of [0,1]", rate)
		}
	}
	res := &RASResult{Passes: passes}
	for _, rate := range rates {
		res.Rows = append(res.Rows, rasPoint(s.Cfg.Seed, rate, passes, scrubBudget))
	}
	anchor := res.Rows[0].Merged
	for i := range res.Rows {
		if anchor > 0 {
			res.Rows[i].CoveragePct = float64(res.Rows[i].Merged) / float64(anchor) * 100
		}
	}
	return res, nil
}

// String renders the sweep as a table.
func (r *RASResult) String() string {
	t := &table{
		title: fmt.Sprintf("RAS: fault rate vs merge coverage and overheads (%d scan passes)", r.Passes),
		header: []string{"ue/read", "coverage", "merged", "retries", "healed", "aborts",
			"sw-fb", "quar", "retry%", "scrub%", "ue-rate", "degrade@"},
	}
	for _, row := range r.Rows {
		deg := "never"
		if row.DegradeInterval >= 0 {
			deg = fmt.Sprintf("pass %d", row.DegradeInterval)
		}
		t.add(
			fmt.Sprintf("%.0e", row.Rate),
			f1(row.CoveragePct)+"%",
			fmt.Sprintf("%d", row.Merged),
			fmt.Sprintf("%d", row.LineRetries),
			fmt.Sprintf("%d", row.RetriesHealed),
			fmt.Sprintf("%d", row.FaultAborts),
			fmt.Sprintf("%d", row.SWFallbacks),
			fmt.Sprintf("%d", row.Quarantined),
			f2(row.RetryPct)+"%",
			f2(row.ScrubPct)+"%",
			fmt.Sprintf("%.2e", row.UERate),
			deg,
		)
	}
	t.notes = append(t.notes,
		"coverage: frames reclaimed vs the fault-free run; bounded re-reads heal",
		"transients, UE aborts fall back to software compare and quarantine the",
		"frame, and the trip policy marks where PageForge degrades to sw KSM.")
	return t.String()
}
