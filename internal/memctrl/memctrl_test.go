package memctrl

import (
	"bytes"
	"testing"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/mem"
	"repro/internal/sim"
)

func newCtrl(frames int, withL3 bool) (*Controller, *mem.Phys) {
	phys := mem.New(uint64(frames) * mem.PageSize)
	var l3 *cache.Cache
	if withL3 {
		l3 = cache.NewCache(cache.Config{SizeBytes: 64 << 10, Ways: 8})
	}
	return New(dram.New(dram.DefaultConfig()), phys, l3), phys
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
	c, phys := newCtrl(4, false)
	pfn := fillFrame(phys)
	res := c.FetchLine(pfn, 3, 0, dram.SrcPageForge)
	if res.FromNetwork {
		t.Fatal("no hierarchy attached but serviced from network")
	}
	if !bytes.Equal(res.Data, phys.ReadLine(pfn, 3)) {
		t.Fatal("wrong line data")
	}
	if res.LineCode() != ecc.EncodeLine(res.Data) {
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
	c, phys := newCtrl(4, true)
	pfn := fillFrame(phys)
	c.L3.Insert(uint64(pfn.LineAddr(5))) // line now cached
	res := c.FetchLine(pfn, 5, 0, dram.SrcPageForge)
	if !res.FromNetwork {
		t.Fatal("cached line not serviced from the network")
	}
	if res.Latency != c.NetworkLatency {
		t.Fatalf("latency = %d, want %d", res.Latency, c.NetworkLatency)
	}
	if c.Stats.PFNetworkHits != 1 || c.Stats.PFDRAMReads != 0 {
		t.Fatalf("stats %+v", c.Stats)
	}
	// The controller's encoder produced the code.
	if res.LineCode() != ecc.EncodeLine(res.Data) {
		t.Fatal("encoder code mismatch")
	}
	if c.DRAM.TotalBytes(dram.SrcPageForge) != 0 {
		t.Fatal("network-serviced fetch generated DRAM traffic")
	}
	// The probe is a Peek: it leaves the L3's statistics alone.
	if c.L3.Hits != 0 || c.L3.Misses != 0 {
		t.Fatalf("probe counted as an L3 access: %d hits, %d misses", c.L3.Hits, c.L3.Misses)
	}
	// An uncached line of the same frame still goes to DRAM.
	if res := c.FetchLine(pfn, 6, 0, dram.SrcPageForge); res.FromNetwork {
		t.Fatal("uncached line serviced from the network")
	}
}

func TestDemandAccessReadsDRAM(t *testing.T) {
	c, _ := newCtrl(4, false)
	lat := c.DemandAccess(0x12345, 0, dram.SrcKSM)
	if lat == 0 {
		t.Fatal("demand read with zero latency")
	}
	if c.Stats.DemandReads != 1 || c.Stats.ECCDecodes != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
	if c.DRAM.TotalBytes(dram.SrcKSM) != 64 || c.DRAM.TotalBytes(dram.SrcCore) != 0 {
		t.Fatal("traffic not attributed to the requesting source")
	}
	// A second read of the line while the first is still in flight is a
	// second DRAM access: the controller does not coalesce.
	c.DemandAccess(0x12340, 1, dram.SrcKSM)
	if c.DRAM.TotalBytes(dram.SrcKSM) != 128 || c.Stats.ECCDecodes != 2 {
		t.Fatal("overlapping read of the same line did not reach DRAM")
	}
}

func TestFaultInjectionPath(t *testing.T) {
	c, phys := newCtrl(4, false)
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
	if res.LineCode() != ecc.EncodeLine(phys.ReadLine(pfn, 0)) {
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
	if res.LineCode() != (ecc.LineCode{}) {
		t.Fatal("poisoned fetch leaked an ECC code")
	}
}

// TestFetchLineZeroAlloc pins the PageForge line fetch as allocation-free
// with no fault model: fetching a frame's lines from DRAM allocates
// nothing.
func TestFetchLineZeroAlloc(t *testing.T) {
	c, phys := newCtrl(4, false)
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

// TestL3MissFillZeroAlloc pins the application-traffic path every
// measurement interval runs: an L3 Lookup miss, the Insert that fills the
// line, and the DemandAccess that reads it from DRAM allocate nothing.
func TestL3MissFillZeroAlloc(t *testing.T) {
	c, _ := newCtrl(4, true)
	rng := sim.NewRNG(3)
	now := uint64(0)
	access := func() {
		addr := uint64(1)<<40 + uint64(rng.Intn(1<<20))*mem.LineSize
		if !c.L3.Lookup(addr) {
			c.DemandAccess(addr, now, dram.SrcCore)
			c.L3.Insert(addr)
		}
		now += 100
	}
	for i := 0; i < 1<<14; i++ {
		access()
	}
	// AllocsPerRun truncates its per-run average to an integer, so each run
	// makes many calls: one allocation in a thousand still reads nonzero.
	const calls = 1000
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < calls; i++ {
			access()
		}
	})
	if allocs != 0 {
		t.Errorf("L3 miss path made %v allocations per %d calls, want 0", allocs, calls)
	}
	if c.L3.Misses == 0 || c.Stats.DemandReads != c.L3.Misses {
		t.Fatalf("stream did not take the miss path: %d misses, %d demand reads", c.L3.Misses, c.Stats.DemandReads)
	}
}

// TestLineCodeMatchesEagerEncode is the property behind the lazy codes:
// for every line of a stored and of a seeded frame, fetched from DRAM and
// from the network, with no fault model and with fault models that flip
// one, two or three bits or nothing, LineCode returns what the eager
// controller returned — ecc.EncodeLine of the clean line, or a zero code
// for a poisoned fetch.
func TestLineCodeMatchesEagerEncode(t *testing.T) {
	flips := func(bits ...int) FaultModel {
		return FaultFunc(func(addr uint64, line []byte) {
			for _, b := range bits {
				b = (b + int(addr/mem.LineSize)) % (8 * mem.LineSize)
				line[b/8] ^= 1 << (b % 8)
			}
		})
	}
	models := []struct {
		name string
		m    FaultModel
	}{
		{"none", nil},
		{"clean", flips()},
		{"one bit", flips(5)},
		{"two bits", flips(3, 9)},
		{"three bits", flips(1, 70, 300)},
	}
	for _, fm := range models {
		for _, network := range []bool{false, true} {
			c, phys := newCtrl(4, true)
			c.Faults = fm.m
			stored := fillFrame(phys)
			seeded, _ := phys.Alloc()
			phys.SeedPage(seeded, 42)
			for _, pfn := range []mem.PFN{stored, seeded} {
				for li := 0; li < mem.LinesPerPage; li++ {
					clean := bytes.Clone(phys.ReadLine(pfn, li))
					if network {
						c.L3.Insert(uint64(pfn.LineAddr(li)))
					}
					res := c.FetchLine(pfn, li, uint64(li)*1000, dram.SrcPageForge)
					want := ecc.EncodeLine(clean)
					if res.Poisoned {
						want = ecc.LineCode{}
					}
					if got := res.LineCode(); got != want {
						t.Fatalf("%s, network %v, frame %d line %d: LineCode %v, eager %v", fm.name, network, pfn, li, got, want)
					}
				}
			}
		}
	}
}
