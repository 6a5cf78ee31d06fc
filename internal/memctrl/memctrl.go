// Package memctrl models the memory controller of Figure 3: read/write
// request paths with the ECC encode/decode engine on the data path, request
// coalescing between demand traffic and PageForge traffic, and the line
// fetch service the PageForge module uses ("issue each request to the
// on-chip network first; otherwise place it in the Read Request Buffer").
package memctrl

import (
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/mem"
)

// Stats counts controller activity.
type Stats struct {
	DemandReads      uint64
	DemandWrites     uint64
	PFFetches        uint64 // PageForge line fetches requested
	PFNetworkHits    uint64 // serviced by the on-chip network (caches)
	PFDRAMReads      uint64 // serviced by the local DRAM
	PFCoalesced      uint64 // PageForge fetches folded into an in-flight read
	DemandCoalesced  uint64 // demand reads folded into an in-flight read
	ECCEncodes       uint64 // lines encoded (writes + network-serviced fetches)
	ECCDecodes       uint64 // lines decoded (DRAM reads)
	ECCCorrected     uint64
	ECCUncorrectable uint64
}

// pendingRead is one in-flight read: its completion cycle and the source
// that issued it, so coalescing can be attributed to the right side.
type pendingRead struct {
	done uint64
	src  dram.Source
}

// FaultModel corrupts line data arriving from the DRAM array before the
// controller's ECC decoder sees it. Implementations must be deterministic
// for a deterministic access sequence (the RAS experiments depend on it).
// faults.Model is the production implementation; FaultFunc adapts test
// closures.
type FaultModel interface {
	Corrupt(addr, now uint64, line []byte)
}

// FaultFunc adapts a plain corruption closure, which needs no read cycle,
// to the FaultModel interface.
type FaultFunc func(addr uint64, line []byte)

// Corrupt applies the closure.
func (f FaultFunc) Corrupt(addr, now uint64, line []byte) { f(addr, line) }

// Controller is one memory controller. The platform instantiates two and
// places the PageForge module in one of them (Figure 5).
type Controller struct {
	DRAM *dram.DRAM
	Phys *mem.Phys
	// Hier, when set, is probed for cached copies before going to DRAM on
	// PageForge fetches. Demand traffic arrives *from* the hierarchy, so it
	// never probes.
	Hier *cache.Hierarchy
	// NetworkLatency is the round-trip cost of a network-serviced fetch.
	NetworkLatency uint64
	// Faults, when set, corrupts line data fetched from the DIMM before
	// ECC decoding (the RAS layer's DRAM fault model).
	Faults FaultModel

	Stats   Stats
	pending map[uint64]pendingRead // line addr -> in-flight read
}

// New wires a controller over a DRAM model and backing store.
func New(d *dram.DRAM, phys *mem.Phys, hier *cache.Hierarchy) *Controller {
	return &Controller{
		DRAM:           d,
		Phys:           phys,
		Hier:           hier,
		NetworkLatency: 40, // bus + L3 tag + transfer on the 512b bus
		pending:        make(map[uint64]pendingRead),
	}
}

// DemandAccess services a cache-hierarchy fill or write-back at cycle now
// and returns its latency. Reads coalesce with any in-flight read for the
// same line — PageForge-issued (Section 3.2.2) or earlier demand traffic —
// counted under Stats.DemandCoalesced; writes invalidate the pending entry
// so later reads cannot fold into a pre-write completion window. src
// attributes the DRAM traffic: core demand, or the software KSM kthread
// streaming pages through the caches.
func (c *Controller) DemandAccess(addr uint64, now uint64, write bool, src dram.Source) uint64 {
	lineAddr := addr &^ uint64(mem.LineSize-1)
	if write {
		c.Stats.DemandWrites++
		c.Stats.ECCEncodes++
		// The write supersedes any in-flight read for this line: a later
		// read must not coalesce into the pre-write read's completion
		// window and observe stale data timing.
		delete(c.pending, lineAddr)
		return c.DRAM.Access(lineAddr, now, true, src)
	}
	c.Stats.DemandReads++
	if p, ok := c.pending[lineAddr]; ok && p.done > now {
		c.Stats.DemandCoalesced++
		return p.done - now
	}
	c.Stats.ECCDecodes++
	lat := c.DRAM.Access(lineAddr, now, false, src)
	c.trackPending(lineAddr, now, now+lat, src)
	return lat
}

// FetchResult describes a PageForge line fetch.
type FetchResult struct {
	Data    []byte
	Code    ecc.LineCode
	Latency uint64
	// FromNetwork reports whether a cache supplied the line; the ECC code
	// was then produced by the controller's encoder rather than the DIMM.
	FromNetwork bool
	// Poisoned reports an uncorrectable ECC error: Data is the raw
	// corrupted read, Code is zeroed, and neither may be consumed — not
	// for comparison verdicts and not for hash minikeys. The requester
	// must retry, fall back to software, or quarantine.
	Poisoned bool
}

// FetchLine services a PageForge request for one line of a physical frame
// at cycle now, per Section 3.2.2 / 3.3.2: probe the on-chip network first;
// otherwise coalesce with pending requests or access DRAM, attributing the
// traffic to the PageForge source.
func (c *Controller) FetchLine(pfn mem.PFN, lineIdx int, now uint64, src dram.Source) FetchResult {
	c.Stats.PFFetches++
	addr := uint64(pfn.LineAddr(lineIdx))
	data := c.Phys.ReadLine(pfn, lineIdx)

	if c.Hier != nil && c.Hier.ProbeNetwork(addr) {
		// Serviced from a cache: the response passes through the memory
		// controller and the ECC engine generates the code on the fly.
		c.Stats.PFNetworkHits++
		c.Stats.ECCEncodes++
		return FetchResult{Data: data, Code: ecc.EncodeLine(data), Latency: c.NetworkLatency, FromNetwork: true}
	}

	if p, ok := c.pending[addr]; ok && p.done > now {
		// Another request for this line is already in flight: coalesce.
		c.Stats.PFCoalesced++
		res := c.readDIMM(addr, now, data)
		res.Latency = p.done - now
		return res
	}

	c.Stats.PFDRAMReads++
	c.Stats.ECCDecodes++
	lat := c.DRAM.Access(addr, now, false, src)
	c.trackPending(addr, now, now+lat, src)
	res := c.readDIMM(addr, now, data)
	res.Latency = lat
	return res
}

// readDIMM models the DIMM read data path. The stored ECC code arrives
// from the spare chip alongside the line (the simulation stores no
// separate ECC array — codes are recomputed, bit-identical for error-free
// cells), the fault model corrupts the wire/array data, and the decode
// engine corrects what it can. An uncorrectable error yields a Poisoned
// result carrying the raw corrupted data and a zero code; a corrected
// error yields the repaired data with the (clean) stored code, so
// minikeys always derive from post-correction content.
func (c *Controller) readDIMM(addr, now uint64, data []byte) FetchResult {
	code := ecc.EncodeLine(data)
	if c.Faults == nil {
		return FetchResult{Data: data, Code: code}
	}
	raw := make([]byte, len(data))
	copy(raw, data)
	c.Faults.Corrupt(addr, now, raw)
	decoded, st := ecc.DecodeLine(raw, code)
	switch st {
	case ecc.OK:
		return FetchResult{Data: data, Code: code}
	case ecc.CorrectedData, ecc.CorrectedCheck:
		c.Stats.ECCCorrected++
		return FetchResult{Data: decoded, Code: code}
	default:
		c.Stats.ECCUncorrectable++
		return FetchResult{Data: raw, Poisoned: true}
	}
}

// trackPending records an in-flight read and prunes already-completed
// entries so the map stays small.
func (c *Controller) trackPending(addr, now, done uint64, src dram.Source) {
	if len(c.pending) > 4096 {
		for a, p := range c.pending {
			if p.done <= now {
				delete(c.pending, a)
			}
		}
	}
	c.pending[addr] = pendingRead{done: done, src: src}
}
