package pageforge

import (
	"bytes"
	"fmt"

	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/sim"
)

// CompareCycles is the ALU time to compare one 64B line pair already
// buffered in the module (the 64-bit comparator walks eight words).
const CompareCycles = 8

// MaxLineRetries bounds how many times the FSM re-reads a line whose
// fetch came back poisoned before aborting the batch. Transient upsets
// heal on a re-read; stuck-at cells and in-progress bursts do not, and
// unbounded retries against those would wedge the engine.
const MaxLineRetries = 2

// LineFetcher is the service the hosting memory controller provides to the
// module. *memctrl.Controller implements it; the platform's multi-controller
// router does too (PageForge requests to pages homed on the other
// controller cross the interconnect, Section 4.1).
type LineFetcher interface {
	FetchLine(pfn mem.PFN, lineIdx int, now uint64, src dram.Source) memctrl.FetchResult
}

// Engine is the PageForge hardware module inside one memory controller.
// The OS drives it exclusively through the Table 1 API (InsertPPN,
// InsertPFE, UpdatePFE, GetPFEInfo, UpdateECCOffset) plus Trigger.
type Engine struct {
	MC      LineFetcher
	Table   ScanTable
	offsets ecc.KeyOffsets
	keyAsm  *ecc.KeyAssembler

	busy bool
	// doneAt is the cycle at which the current batch finishes processing;
	// the OS's periodic GetPFEInfo polls before that time see stale
	// (not-Scanned) state, just like real asynchronous hardware.
	doneAt uint64

	// Trace receives per-batch and RAS incident events when enabled (the
	// zero Scope is off and costs one branch per batch).
	Trace obs.Scope

	// Statistics.
	BatchCycles   sim.Online // per-batch processing time (Table 5)
	LinesFetched  uint64
	PagesCompared uint64
	Duplicates    uint64
	KeysGenerated uint64
	BusyCycles    uint64
	// CompareEarlyExits counts page comparisons that stopped before the
	// last line pair — the divergence-detection shortcut whose frequency
	// governs how much of each candidate the engine actually streams.
	CompareEarlyExits uint64
	// RAS statistics: poisoned-line re-reads issued, retries that came
	// back clean, and batches aborted on an unhealable poisoned line.
	LineRetries   uint64
	RetriesHealed uint64
	FaultAborts   uint64
}

// NewEngine builds a PageForge module attached to a memory controller.
func NewEngine(mc LineFetcher) *Engine {
	return &Engine{
		MC:      mc,
		offsets: ecc.DefaultKeyOffsets,
		keyAsm:  ecc.NewKeyAssembler(ecc.DefaultKeyOffsets),
	}
}

// --- Table 1 software interface -----------------------------------------

// InsertPPN fills an Other Pages entry (function insert_PPN).
func (e *Engine) InsertPPN(index int, ppn mem.PFN, less, more int) {
	if index < 0 || index >= NumOtherPages {
		panic(fmt.Sprintf("pageforge: insert_PPN index %d out of range", index))
	}
	e.Table.Other[index] = OtherPage{Valid: true, PPN: ppn, Less: less, More: more}
}

// InsertPFE fills the PFE entry for a new candidate page (insert_PFE).
// Starting a new candidate resets the hash assembler: the key is generated
// in the background across this candidate's batches.
func (e *Engine) InsertPFE(ppn mem.PFN, lastRefill bool, ptr int) {
	e.Table.PFE = PFE{Valid: true, PPN: ppn, LastRefill: lastRefill, Ptr: ptr}
	e.keyAsm.Reset()
}

// UpdatePFE re-arms the PFE for another batch against the same candidate
// (update_PFE): new Ptr, new Last Refill flag, status bits cleared. The
// partially-built hash key is preserved.
func (e *Engine) UpdatePFE(lastRefill bool, ptr int) {
	p := &e.Table.PFE
	p.LastRefill = lastRefill
	p.Ptr = ptr
	p.Scanned = false
	p.Duplicate = false
	p.Fault = false
}

// GetPFEInfo reports the hash key, Ptr, and the S/D/H bits (get_PFE_info)
// as visible at cycle now. While the hardware is still processing, the OS
// sees Scanned=false and polls again later.
func (e *Engine) GetPFEInfo(now uint64) PFEInfo {
	if e.busy && now >= e.doneAt {
		e.busy = false
	}
	if e.busy {
		return PFEInfo{Ptr: e.Table.PFE.Ptr} // in-flight: status bits unset
	}
	p := e.Table.PFE
	return PFEInfo{Hash: p.Hash, Ptr: p.Ptr, Scanned: p.Scanned, Duplicate: p.Duplicate, HashReady: p.HashReady, Fault: p.Fault}
}

// UpdateECCOffset reconfigures which line in each 1KB section feeds the
// hash key (update_ECC_offset). Offsets are rarely changed and take effect
// for subsequent candidates.
func (e *Engine) UpdateECCOffset(offsets ecc.KeyOffsets) error {
	if err := offsets.Validate(); err != nil {
		return err
	}
	e.offsets = offsets
	e.keyAsm = ecc.NewKeyAssembler(offsets)
	return nil
}

// Offsets reports the active hash-key offsets.
func (e *Engine) Offsets() ecc.KeyOffsets { return e.offsets }

// Busy reports whether a batch is still processing at cycle now.
func (e *Engine) Busy(now uint64) bool { return e.busy && now < e.doneAt }

// DoneAt reports when the current batch completes (valid while busy).
func (e *Engine) DoneAt() uint64 { return e.doneAt }

// --- The comparison state machine ----------------------------------------

// Trigger starts processing the Scan Table at cycle now. The model runs the
// whole batch eagerly, computing the cycle at which the hardware would
// finish; status bits become visible to GetPFEInfo only at that time.
// It panics if triggered while busy or without a valid PFE — both are
// driver bugs, not recoverable hardware states.
func (e *Engine) Trigger(now uint64) {
	if e.Busy(now) {
		panic("pageforge: Trigger while busy")
	}
	p := &e.Table.PFE
	if !p.Valid {
		panic("pageforge: Trigger without insert_PFE")
	}
	clock := now
	comparedBefore := e.PagesCompared

	// Walk the table from Ptr, comparing the candidate page line-by-line
	// in lockstep with each table page.
	for e.Table.inTable(p.Ptr) {
		entry := e.Table.Other[p.Ptr]
		cmp, faulted := e.comparePages(p.PPN, entry.PPN, &clock)
		e.PagesCompared++
		if faulted {
			// A line stayed poisoned through the retry budget: corrupted
			// data must not decide a merge, so the batch aborts and the
			// Fault bit tells the OS to take its software path.
			p.Fault = true
			e.FaultAborts++
			break
		}
		if cmp == 0 {
			p.Duplicate = true
			e.Duplicates++
			break
		}
		if cmp < 0 {
			p.Ptr = entry.Less
		} else {
			p.Ptr = entry.More
		}
	}
	p.Scanned = true

	// The last batch (Last Refill set, or a duplicate found) forces the
	// hash key to completion (Section 3.3.1). A faulted batch skips it:
	// the candidate is headed for software fallback anyway, and a key
	// built around a poisoned page is worthless.
	if !p.Fault && (p.LastRefill || p.Duplicate) && !p.HashReady {
		var missing [ecc.Sections]int
		for _, li := range e.keyAsm.Missing(missing[:0]) {
			res, done := e.fetchLine(p.PPN, li, clock)
			clock = done
			if res.Poisoned {
				p.Fault = true
				e.FaultAborts++
				break
			}
			e.keyAsm.Observe(li, res.LineCode())
		}
	}
	if !p.Fault && e.keyAsm.Ready() && !p.HashReady {
		p.Hash = e.keyAsm.Key()
		p.HashReady = true
		e.KeysGenerated++
	}

	e.busy = true
	e.doneAt = clock
	spent := clock - now
	e.BusyCycles += spent
	e.BatchCycles.Add(float64(spent))
	if e.Trace.Enabled() {
		name := "batch"
		switch {
		case p.Fault:
			name = "batch_fault"
		case p.Duplicate:
			name = "batch_duplicate"
		}
		e.Trace.Complete(obs.TIDEngine, "pfe", name, now, spent, "compared", e.PagesCompared-comparedBefore)
	}
}

// fetchLine issues one line fetch with bounded poison retries, each
// re-read issued when the previous one completes. It returns the final
// result and its completion cycle; a result still Poisoned after the
// retry budget is unhealable at this time (stuck-at cells, an active
// burst) and the caller must abort.
func (e *Engine) fetchLine(pfn mem.PFN, li int, start uint64) (memctrl.FetchResult, uint64) {
	res := e.MC.FetchLine(pfn, li, start, dram.SrcPageForge)
	e.LinesFetched++
	done := start + res.Latency
	if res.Poisoned && e.Trace.Enabled() {
		e.Trace.Instant(obs.TIDRAS, "ras", "poison", done, "pfn", uint64(pfn))
	}
	for r := 0; res.Poisoned && r < MaxLineRetries; r++ {
		e.LineRetries++
		res = e.MC.FetchLine(pfn, li, done, dram.SrcPageForge)
		e.LinesFetched++
		done += res.Latency
		if !res.Poisoned {
			e.RetriesHealed++
			if e.Trace.Enabled() {
				e.Trace.Instant(obs.TIDRAS, "ras", "retry_healed", done, "pfn", uint64(pfn))
			}
		}
	}
	if res.Poisoned && e.Trace.Enabled() {
		e.Trace.Instant(obs.TIDRAS, "ras", "poison_unhealed", done, "pfn", uint64(pfn))
	}
	return res, done
}

// comparePages compares the candidate with one table page line-by-line in
// lockstep, advancing the hardware clock with each fetched pair, snatching
// candidate-line ECC codes for the background hash key, and stopping at
// the first divergent line. faulted reports that a line of either page
// stayed poisoned through the retry budget; the comparison verdict is
// then meaningless and the caller must abort the batch. Poisoned codes
// never reach the key assembler.
func (e *Engine) comparePages(cand, other mem.PFN, clock *uint64) (cmp int, faulted bool) {
	for li := 0; li < mem.LinesPerPage; li++ {
		// The offset is computed once and reused for both pages; the two
		// line reads are issued together (retries serialize after them).
		resA, doneA := e.fetchLine(cand, li, *clock)
		resB, doneB := e.fetchLine(other, li, *clock)
		done := doneA
		if doneB > done {
			done = doneB
		}
		*clock = done + CompareCycles
		if !resA.Poisoned && e.keyAsm.Wants(li) {
			e.keyAsm.Observe(li, resA.LineCode())
		}
		if resA.Poisoned || resB.Poisoned {
			return 0, true
		}
		if c := bytes.Compare(resA.Data, resB.Data); c != 0 {
			if li < mem.LinesPerPage-1 {
				e.CompareEarlyExits++
			}
			return c, false
		}
	}
	return 0, false
}
