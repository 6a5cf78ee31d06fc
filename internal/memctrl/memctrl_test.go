package memctrl

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/mem"
)

func newCtrl(frames int, withHier bool) (*Controller, *mem.Phys, *cache.Hierarchy) {
	phys := mem.New(uint64(frames) * mem.PageSize)
	var hier *cache.Hierarchy
	if withHier {
		cfg := cache.DefaultHierarchyConfig()
		cfg.Cores = 2
		cfg.L1 = cache.Config{SizeBytes: 4 << 10, Ways: 4}
		cfg.L2 = cache.Config{SizeBytes: 16 << 10, Ways: 4}
		cfg.L3 = cache.Config{SizeBytes: 64 << 10, Ways: 8}
		hier = cache.NewHierarchy(cfg)
	}
	c := New(dram.New(dram.DefaultConfig()), phys, hier)
	return c, phys, hier
}

func fillFrame(p *mem.Phys) mem.PFN {
	pfn, err := p.Alloc()
	if err != nil {
		panic(err)
	}
	pg := make([]byte, mem.PageSize)
	for i := range pg {
		pg[i] = byte(i * 7)
	}
	p.WriteAt(pfn, 0, pg)
	return pfn
}

func TestFetchLineFromDRAM(t *testing.T) {
	c, phys, _ := newCtrl(4, false)
	pfn := fillFrame(phys)
	res := c.FetchLine(pfn, 3, 0, dram.SrcPageForge)
	if res.FromNetwork {
		t.Fatal("no hierarchy attached but serviced from network")
	}
	if !bytes.Equal(res.Data, phys.ReadLine(pfn, 3)) {
		t.Fatal("wrong line data")
	}
	if res.Code != ecc.EncodeLine(res.Data) {
		t.Fatal("ECC code mismatch")
	}
	if res.Latency == 0 {
		t.Fatal("DRAM fetch with zero latency")
	}
	if c.Stats.PFDRAMReads != 1 || c.Stats.ECCDecodes != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
	if c.DRAM.TotalBytes(dram.SrcPageForge) != 64 {
		t.Fatal("traffic not attributed to PageForge")
	}
}

func TestFetchLineFromNetwork(t *testing.T) {
	c, phys, hier := newCtrl(4, true)
	pfn := fillFrame(phys)
	addr := uint64(pfn.LineAddr(5))
	hier.Access(0, addr, false, cache.SrcApp) // line now cached
	res := c.FetchLine(pfn, 5, 0, dram.SrcPageForge)
	if !res.FromNetwork {
		t.Fatal("cached line not serviced from the network")
	}
	if res.Latency != c.NetworkLatency {
		t.Fatalf("latency = %d, want %d", res.Latency, c.NetworkLatency)
	}
	if c.Stats.PFNetworkHits != 1 {
		t.Fatal("network hit not counted")
	}
	// The controller's encoder produced the code.
	if res.Code != ecc.EncodeLine(res.Data) {
		t.Fatal("encoder code mismatch")
	}
	if c.DRAM.TotalBytes(dram.SrcPageForge) != 0 {
		t.Fatal("network-serviced fetch generated DRAM traffic")
	}
}

func TestFetchLineCoalescing(t *testing.T) {
	c, phys, _ := newCtrl(4, false)
	pfn := fillFrame(phys)
	first := c.FetchLine(pfn, 0, 100, dram.SrcPageForge)
	// A second request for the same line while the first is in flight.
	second := c.FetchLine(pfn, 0, 110, dram.SrcPageForge)
	if c.Stats.PFCoalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", c.Stats.PFCoalesced)
	}
	if second.Latency >= first.Latency {
		t.Fatal("coalesced request did not finish with the pending one")
	}
	if 110+second.Latency != 100+first.Latency {
		t.Fatal("coalesced completion time mismatch")
	}
	// After completion, a new fetch is a fresh DRAM access.
	c.FetchLine(pfn, 0, 100+first.Latency+1, dram.SrcPageForge)
	if c.Stats.PFDRAMReads != 2 {
		t.Fatal("post-completion fetch should go to DRAM")
	}
}

func TestDemandCoalescesWithPageForge(t *testing.T) {
	c, phys, _ := newCtrl(4, false)
	pfn := fillFrame(phys)
	pf := c.FetchLine(pfn, 0, 100, dram.SrcPageForge)
	lat := c.DemandAccess(uint64(pfn.LineAddr(0)), 110, false, dram.SrcCore)
	if c.Stats.DemandCoalesced != 1 {
		t.Fatal("demand read did not coalesce with in-flight PageForge read")
	}
	if c.Stats.PFCoalesced != 0 {
		t.Fatal("demand-side coalescing miscounted as PageForge coalescing")
	}
	if 110+lat != 100+pf.Latency {
		t.Fatal("coalesced demand completion mismatch")
	}
}

func TestDemandCoalescesWithDemand(t *testing.T) {
	c, phys, _ := newCtrl(4, false)
	pfn := fillFrame(phys)
	addr := uint64(pfn.LineAddr(0))
	first := c.DemandAccess(addr, 100, false, dram.SrcCore)
	second := c.DemandAccess(addr, 110, false, dram.SrcCore)
	if c.Stats.DemandCoalesced != 1 || c.Stats.PFCoalesced != 0 {
		t.Fatalf("demand/demand coalescing misattributed: %+v", c.Stats)
	}
	if 110+second != 100+first {
		t.Fatal("coalesced demand completion mismatch")
	}
	if p := c.pending[addr]; p.src != dram.SrcCore {
		t.Fatalf("pending entry tagged %v, want demand source", p.src)
	}
}

func TestFetchCoalescesWithDemand(t *testing.T) {
	c, phys, _ := newCtrl(4, false)
	pfn := fillFrame(phys)
	addr := uint64(pfn.LineAddr(0))
	lat := c.DemandAccess(addr, 100, false, dram.SrcCore)
	res := c.FetchLine(pfn, 0, 110, dram.SrcPageForge)
	if c.Stats.PFCoalesced != 1 || c.Stats.DemandCoalesced != 0 {
		t.Fatalf("PageForge-side coalescing misattributed: %+v", c.Stats)
	}
	if 110+res.Latency != 100+lat {
		t.Fatal("coalesced fetch completion mismatch")
	}
}

func TestDemandWriteInvalidatesPending(t *testing.T) {
	c, phys, _ := newCtrl(4, false)
	pfn := fillFrame(phys)
	addr := uint64(pfn.LineAddr(0))
	c.DemandAccess(addr, 100, false, dram.SrcCore) // read in flight
	c.DemandAccess(addr, 110, true, dram.SrcCore)  // write to the same line
	if _, ok := c.pending[addr]; ok {
		t.Fatal("write left the pending read entry alive")
	}
	// A later read must be a fresh DRAM access, not a fold into the
	// pre-write read's completion window.
	reads := c.Stats.ECCDecodes
	c.DemandAccess(addr, 120, false, dram.SrcCore)
	if c.Stats.DemandCoalesced != 0 {
		t.Fatal("post-write read coalesced into the stale pending entry")
	}
	if c.Stats.ECCDecodes != reads+1 {
		t.Fatal("post-write read did not go to DRAM")
	}
}

func TestDemandWriteEncodesECC(t *testing.T) {
	c, _, _ := newCtrl(4, false)
	c.DemandAccess(0, 0, true, dram.SrcCore)
	if c.Stats.DemandWrites != 1 || c.Stats.ECCEncodes != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestFaultInjectionPath(t *testing.T) {
	c, phys, _ := newCtrl(4, false)
	pfn := fillFrame(phys)
	// Single-bit flip: corrected, and the returned data is the repaired
	// (clean) line with its clean code.
	c.Faults = FaultFunc(func(addr uint64, line []byte) { line[0] ^= 0x01 })
	res := c.FetchLine(pfn, 0, 0, dram.SrcPageForge)
	if c.Stats.ECCCorrected != 1 {
		t.Fatalf("corrected = %d, want 1", c.Stats.ECCCorrected)
	}
	if res.Poisoned {
		t.Fatal("corrected fetch reported poisoned")
	}
	if !bytes.Equal(res.Data, phys.ReadLine(pfn, 0)) {
		t.Fatal("corrected fetch returned corrupted data")
	}
	if res.Code != ecc.EncodeLine(phys.ReadLine(pfn, 0)) {
		t.Fatal("corrected fetch returned a dirty code")
	}
	// Double-bit flip in one word: detected, uncorrectable, poisoned, and
	// the code is zeroed so it can never feed a minikey.
	c.Faults = FaultFunc(func(addr uint64, line []byte) { line[1] ^= 0x03 })
	res = c.FetchLine(pfn, 1, 1_000_000, dram.SrcPageForge)
	if c.Stats.ECCUncorrectable != 1 {
		t.Fatalf("uncorrectable = %d, want 1", c.Stats.ECCUncorrectable)
	}
	if !res.Poisoned {
		t.Fatal("uncorrectable fetch not poisoned")
	}
	if res.Code != (ecc.LineCode{}) {
		t.Fatal("poisoned fetch leaked an ECC code")
	}
}

func TestPendingMapPruning(t *testing.T) {
	c, phys, _ := newCtrl(8, false)
	pfn := fillFrame(phys)
	// Far more distinct line requests than the prune threshold, spread over
	// time so earlier ones expire.
	now := uint64(0)
	for i := 0; i < 5000; i++ {
		li := i % mem.LinesPerPage
		c.FetchLine(pfn, li, now, dram.SrcPageForge)
		now += 1_000_000
	}
	if len(c.pending) > 4200 {
		t.Fatalf("pending map grew to %d entries", len(c.pending))
	}
}

// TestFetchLineZeroAlloc pins the PageForge line fetch as allocation-free
// in steady state with no fault model: once the in-flight table and DRAM
// bank state have seen the frame's lines, fetching them again from DRAM
// allocates nothing.
func TestFetchLineZeroAlloc(t *testing.T) {
	c, phys, _ := newCtrl(4, false)
	pfn := fillFrame(phys)
	now := uint64(0)
	fetchAll := func() {
		for li := 0; li < mem.LinesPerPage; li++ {
			res := c.FetchLine(pfn, li, now, dram.SrcPageForge)
			now += res.Latency/2 + 1
		}
	}
	for i := 0; i < 4; i++ {
		fetchAll()
	}
	if n := testing.AllocsPerRun(20, fetchAll); n != 0 {
		t.Fatalf("%v allocs per 64-line page fetch, want 0", n)
	}
}
