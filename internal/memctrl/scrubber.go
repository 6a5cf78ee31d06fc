package memctrl

import (
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obs"
)

// ueLogCap bounds the scrubber's uncorrectable-address log.
const ueLogCap = 64

// ScrubStats counts patrol-scrub activity.
type ScrubStats struct {
	Lines         uint64 // allocated lines read and checked
	Corrected     uint64 // correctable lines found (and rewritten)
	Uncorrectable uint64 // poisoned lines found (logged, left in place)
	Rewrites      uint64 // repair write-backs issued
	BusyCycles    uint64 // DRAM occupancy the scrub walk consumed
	Wraps         uint64 // full passes over the physical array
}

// Scrubber is the controller's patrol-scrub engine: it walks the physical
// array line by line on a per-call budget, issuing background-class DRAM
// reads (dram.SrcScrub — demand traffic preempts them exactly like
// PageForge traffic), re-encoding and writing back lines the SECDED
// engine corrected, and logging uncorrectable lines for policy. Its reads
// decode through the same fault model and SECDED engine as every fetch, so
// the walk also samples the array's error rate for the controller's ECC
// counters, which the platform's degradation tracker watches.
type Scrubber struct {
	MC *Controller

	// Trace receives per-slice and UE-discovery events when enabled.
	Trace obs.Scope

	cursor uint64 // next line index over the physical array
	Stats  ScrubStats
	// UEAddrs logs the first ueLogCap uncorrectable line addresses found.
	UEAddrs []uint64
}

// Step scrubs up to budget allocated lines starting at cycle now and
// returns the cycle at which the last scrub access finished (now itself
// when nothing was scrubbed). Unallocated frames are skipped without DRAM
// traffic; the cursor persists across calls and wraps at the end of the
// array.
func (s *Scrubber) Step(now uint64, budget int) uint64 {
	phys := s.MC.Phys
	totalLines := uint64(phys.TotalFrames()) * uint64(mem.LinesPerPage)
	if totalLines == 0 || budget <= 0 {
		return now
	}
	start := now
	issued := 0
	defer func() {
		if issued > 0 && s.Trace.Enabled() {
			s.Trace.Complete(obs.TIDScrub, "scrub", "scrub_slice", start, now-start, "lines", uint64(issued))
		}
	}()
	// One array's worth of cursor advances per call bounds the skip walk
	// when little memory is allocated.
	for iter := uint64(0); iter < totalLines && issued < budget; iter++ {
		idx := s.cursor % totalLines
		s.cursor++
		if s.cursor%totalLines == 0 {
			s.Stats.Wraps++
		}
		pfn := mem.PFN(idx / uint64(mem.LinesPerPage))
		li := int(idx % uint64(mem.LinesPerPage))
		if !phys.Allocated(pfn) {
			continue
		}
		issued++
		addr := uint64(pfn.LineAddr(li))
		lat := s.MC.DRAM.Access(addr, now, false, dram.SrcScrub)
		s.MC.Stats.ECCDecodes++
		corrBefore := s.MC.Stats.ECCCorrected
		res := s.MC.readDIMM(addr, now, phys.ReadLine(pfn, li))
		s.Stats.Lines++
		now += lat
		s.Stats.BusyCycles += lat
		switch {
		case res.Poisoned:
			// Uncorrectable: the scrubber cannot repair it — log the
			// address so policy (quarantine, degradation) can act.
			s.Stats.Uncorrectable++
			if len(s.UEAddrs) < ueLogCap {
				s.UEAddrs = append(s.UEAddrs, addr)
			}
			if s.Trace.Enabled() {
				s.Trace.Instant(obs.TIDScrub, "ras", "scrub_ue", now, "addr", addr)
			}
		case s.MC.Stats.ECCCorrected > corrBefore:
			// Corrected: write the repaired line back, as a patrol
			// scrubber does.
			wlat := s.MC.DRAM.Access(addr, now, true, dram.SrcScrub)
			s.MC.Stats.ECCEncodes++
			now += wlat
			s.Stats.BusyCycles += wlat
			s.Stats.Corrected++
			s.Stats.Rewrites++
		}
	}
	return now
}
