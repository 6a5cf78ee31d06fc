package memctrl

import (
	"bytes"
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
)

func TestScrubTrafficIsBackgroundClass(t *testing.T) {
	c, phys := newCtrl(4, false)
	fillFrame(phys) // PFN 0
	scrub := &Scrubber{MC: c}

	end := scrub.Step(0, 4)
	if scrub.Stats.Lines != 4 || end == 0 {
		t.Fatalf("scrubbed %d lines, end=%d", scrub.Stats.Lines, end)
	}
	// Attribution: every scrub byte lands on the scrub source, none on the
	// demand or PageForge sources.
	if got := c.DRAM.Stats.BytesBySrc[dram.SrcScrub]; got != 4*mem.LineSize {
		t.Fatalf("scrub bytes = %d, want %d", got, 4*mem.LineSize)
	}
	if c.DRAM.Stats.AccessBySrc[dram.SrcCore] != 0 || c.DRAM.Stats.AccessBySrc[dram.SrcPageForge] != 0 {
		t.Fatal("scrub traffic leaked onto another source")
	}

	// Preemption: a demand read arriving while the scrubber owns the bank
	// waits only for the non-preemptible residual (TCL+TBurst), not the
	// whole reservation.
	dcfg := c.DRAM.Config()
	residual := dcfg.TCL + dcfg.TBurst
	addr := uint64(mem.PFN(0).LineAddr(3)) // the last line scrubbed
	demandAt := end - residual - 20        // raw bank wait would exceed the cap
	c.DemandAccess(addr, demandAt, dram.SrcCore)
	if wait := c.DRAM.Stats.BankWaitBySrc[dram.SrcCore]; wait != residual {
		t.Fatalf("demand bank wait = %d, want the %d-cycle residual cap", wait, residual)
	}
}

func TestScrubRewritesCorrectableLines(t *testing.T) {
	c, phys := newCtrl(4, false)
	pfn := fillFrame(phys)
	faultAddr := uint64(pfn.LineAddr(5))
	c.Faults = FaultFunc(func(addr uint64, line []byte) {
		if addr == faultAddr {
			line[0] ^= 0x01 // single-bit: correctable
		}
	})

	// The fault is live: a fetch sees a corrected line (clean data).
	res := c.FetchLine(pfn, 5, 0, dram.SrcPageForge)
	if c.Stats.ECCCorrected != 1 || res.Poisoned {
		t.Fatalf("expected one corrected fetch, stats %+v", c.Stats)
	}
	if !bytes.Equal(res.Data, phys.ReadLine(pfn, 5)) {
		t.Fatal("corrected fetch returned dirty data")
	}

	// A scrub pass over the frame finds the line, corrects it, and writes
	// it back.
	scrub := &Scrubber{MC: c}
	encodes := c.Stats.ECCEncodes
	scrub.Step(10_000, mem.LinesPerPage)
	if scrub.Stats.Corrected != 1 || scrub.Stats.Rewrites != 1 {
		t.Fatalf("scrub stats %+v", scrub.Stats)
	}
	if c.Stats.ECCEncodes != encodes+1 {
		t.Fatalf("scrub write-back re-encoded %d lines, want 1", c.Stats.ECCEncodes-encodes)
	}
	if scrub.Stats.Uncorrectable != 0 {
		t.Fatal("correctable line logged as UE")
	}
}

func TestScrubLogsUncorrectableLines(t *testing.T) {
	c, phys := newCtrl(4, false)
	pfn := fillFrame(phys)
	ueAddr := uint64(pfn.LineAddr(7))
	c.Faults = FaultFunc(func(addr uint64, line []byte) {
		if addr == ueAddr {
			line[0] ^= 0x03 // double-bit: uncorrectable
		}
	})
	scrub := &Scrubber{MC: c}
	scrub.Step(0, mem.LinesPerPage)
	if scrub.Stats.Uncorrectable != 1 {
		t.Fatalf("scrub stats %+v", scrub.Stats)
	}
	if len(scrub.UEAddrs) != 1 || scrub.UEAddrs[0] != ueAddr {
		t.Fatalf("UE log %v, want [%d]", scrub.UEAddrs, ueAddr)
	}
	if scrub.Stats.Rewrites != 0 {
		t.Fatal("scrubber tried to rewrite an uncorrectable line")
	}
}

func TestScrubSkipsUnallocatedFrames(t *testing.T) {
	c, phys := newCtrl(8, false)
	fillFrame(phys) // only PFN 0 allocated
	scrub := &Scrubber{MC: c}
	scrub.Step(0, 1000) // budget far above the allocated line count
	if scrub.Stats.Lines != mem.LinesPerPage {
		t.Fatalf("scrubbed %d lines, want %d (one allocated frame per wrap)",
			scrub.Stats.Lines, mem.LinesPerPage)
	}
	if c.DRAM.Stats.AccessBySrc[dram.SrcScrub] != uint64(mem.LinesPerPage) {
		t.Fatal("unallocated frames generated DRAM traffic")
	}
}
