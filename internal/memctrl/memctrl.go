// Package memctrl models the memory controller of Figure 3: the demand read
// path and the line fetch service the PageForge module uses ("issue each
// request to the on-chip network first; otherwise place it in the Read
// Request Buffer"), with the ECC encode/decode engine on the data path.
//
// The controller keeps no table of in-flight reads, so it never coalesces
// two reads of one line: in this model no two reads of the same line
// overlap in time (DESIGN.md §5 gives the reasons).
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
	PFFetches        uint64 // PageForge line fetches requested
	PFNetworkHits    uint64 // serviced by the on-chip network (the L3)
	PFDRAMReads      uint64 // serviced by the local DRAM
	ECCEncodes       uint64 // lines encoded (network-serviced fetches)
	ECCDecodes       uint64 // lines decoded (DRAM reads)
	ECCCorrected     uint64
	ECCUncorrectable uint64
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
	// L3, when set, is the shared cache PageForge fetches probe for a
	// cached copy before going to DRAM. Demand traffic arrives *from* the
	// L3, so it never probes.
	L3 *cache.Cache
	// NetworkLatency is the round-trip cost of a network-serviced fetch.
	NetworkLatency uint64
	// Faults, when set, corrupts line data fetched from the DIMM before
	// ECC decoding (the RAS layer's DRAM fault model).
	Faults FaultModel

	Stats Stats
}

// New wires a controller over a DRAM model, backing store and the shared
// L3 its PageForge fetches probe (nil: no cache to probe).
func New(d *dram.DRAM, phys *mem.Phys, l3 *cache.Cache) *Controller {
	return &Controller{
		DRAM:           d,
		Phys:           phys,
		L3:             l3,
		NetworkLatency: 40, // bus + L3 tag + transfer on the 512b bus
	}
}

// DemandAccess services an L3 miss fill at cycle now and returns its
// latency. src attributes the DRAM traffic: core demand, or the software
// KSM kthread streaming pages through the L3.
func (c *Controller) DemandAccess(addr uint64, now uint64, src dram.Source) uint64 {
	c.Stats.DemandReads++
	c.Stats.ECCDecodes++
	return c.DRAM.Access(addr&^uint64(mem.LineSize-1), now, false, src)
}

// FetchResult describes a PageForge line fetch.
type FetchResult struct {
	Data    []byte
	Latency uint64
	// FromNetwork reports whether a cache supplied the line; the ECC code
	// was then produced by the controller's encoder rather than the DIMM.
	FromNetwork bool
	// Poisoned reports an uncorrectable ECC error: Data is the raw
	// corrupted read, LineCode is zero, and neither may be consumed — not
	// for comparison verdicts and not for hash minikeys. The requester
	// must retry, fall back to software, or quarantine.
	Poisoned bool

	// code is the stored code the DIMM delivered, kept when a fault model
	// ran the decoder (coded); otherwise LineCode encodes Data when asked.
	code  ecc.LineCode
	coded bool
}

// LineCode reports the line's ECC code: the one the encoder produced for a
// network-serviced fetch, or the one stored beside the line in the DIMM.
// For an error-free line both equal ecc.EncodeLine(Data), so the code is
// computed only here, on demand — most fetched lines are compared and
// never hashed. A fetch that went through the fault model's decoder kept
// the stored code (the only one correct after a miscorrection), and a
// poisoned fetch has a zero code.
func (r FetchResult) LineCode() ecc.LineCode {
	if r.coded || r.Poisoned {
		return r.code
	}
	return ecc.EncodeLine(r.Data)
}

// FetchLine services a PageForge request for one line of a physical frame
// at cycle now, per Section 3.2.2 / 3.5: probe the on-chip network (the L3)
// first; otherwise read DRAM, attributing the traffic to src.
func (c *Controller) FetchLine(pfn mem.PFN, lineIdx int, now uint64, src dram.Source) FetchResult {
	c.Stats.PFFetches++
	addr := uint64(pfn.LineAddr(lineIdx))
	data := c.Phys.ReadLine(pfn, lineIdx)

	if c.L3 != nil && c.L3.Peek(addr) {
		// Serviced from the cache: the response passes through the memory
		// controller and the ECC engine generates the code on the fly.
		c.Stats.PFNetworkHits++
		c.Stats.ECCEncodes++
		return FetchResult{Data: data, Latency: c.NetworkLatency, FromNetwork: true}
	}

	c.Stats.PFDRAMReads++
	c.Stats.ECCDecodes++
	lat := c.DRAM.Access(addr, now, false, src)
	res := c.readDIMM(addr, now, data)
	res.Latency = lat
	return res
}

// readDIMM models the DIMM read data path. The stored ECC code arrives
// from the spare chip alongside the line (the simulation stores no
// separate ECC array — codes are recomputed, bit-identical for error-free
// cells), the fault model corrupts the wire/array data, and the decode
// engine corrects what it can. Without a fault model every line is
// error-free, so no code is computed here: FetchResult.LineCode encodes
// the data if a consumer asks. An uncorrectable error yields a Poisoned
// result carrying the raw corrupted data and a zero code; a corrected
// error yields the repaired data with the (clean) stored code, so
// minikeys always derive from post-correction content.
func (c *Controller) readDIMM(addr, now uint64, data []byte) FetchResult {
	if c.Faults == nil {
		return FetchResult{Data: data}
	}
	code := ecc.EncodeLine(data)
	raw := make([]byte, len(data))
	copy(raw, data)
	c.Faults.Corrupt(addr, now, raw)
	decoded, st := ecc.DecodeLine(raw, code)
	switch st {
	case ecc.OK:
		return FetchResult{Data: data, code: code, coded: true}
	case ecc.CorrectedData, ecc.CorrectedCheck:
		c.Stats.ECCCorrected++
		return FetchResult{Data: decoded, code: code, coded: true}
	default:
		c.Stats.ECCUncorrectable++
		return FetchResult{Data: raw, Poisoned: true}
	}
}
