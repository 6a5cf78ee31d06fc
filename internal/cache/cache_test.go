package cache

import (
	"testing"

	"repro/internal/sim"
)

func TestConfigSets(t *testing.T) {
	if s := (Config{SizeBytes: 32 << 10, Ways: 8}).Sets(); s != 64 {
		t.Fatalf("32KB/8w sets = %d, want 64", s)
	}
	if s := (Config{SizeBytes: 32 << 20, Ways: 20}).Sets(); s != 26214 {
		t.Fatalf("32MB/20w sets = %d, want 26214", s)
	}
}

func TestCacheHitMissLRU(t *testing.T) {
	c := NewCache(Config{SizeBytes: 4 * LineSize, Ways: 4}) // 1 set, 4 ways
	addrs := []uint64{0, 64, 128, 192}
	for _, a := range addrs {
		if c.Lookup(a) != nil {
			t.Fatal("hit in empty cache")
		}
		c.Insert(a, Exclusive)
	}
	for _, a := range addrs {
		if c.Lookup(a) == nil {
			t.Fatalf("miss on resident line %d", a)
		}
	}
	// Touch 0 to make it MRU, then insert a 5th line: victim must not be 0.
	c.Lookup(0)
	ev := c.Insert(256, Exclusive)
	if !ev.Valid {
		t.Fatal("full set insert produced no eviction")
	}
	if ev.Addr == 0 {
		t.Fatal("evicted the MRU line")
	}
	if c.Peek(0) == nil {
		t.Fatal("MRU line gone")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(Config{SizeBytes: 2 * LineSize, Ways: 2})
	c.Insert(0, Modified)
	if l := c.Peek(0); l != nil {
		l.dirty = true
	}
	present, dirty := c.Invalidate(0)
	if !present || !dirty {
		t.Fatalf("Invalidate = %v/%v, want true/true", present, dirty)
	}
	present, _ = c.Invalidate(0)
	if present {
		t.Fatal("double invalidate found the line")
	}
}

func TestCacheMissRateAndOccupancy(t *testing.T) {
	c := NewCache(Config{SizeBytes: 8 * LineSize, Ways: 2})
	c.Lookup(0) // miss
	c.Insert(0, Shared)
	c.Lookup(0) // hit
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate = %g, want 0.5", c.MissRate())
	}
	if c.Occupancy() != 1.0/8 {
		t.Fatalf("occupancy = %g, want 1/8", c.Occupancy())
	}
	c.ResetStats()
	if c.MissRate() != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config accepted")
		}
	}()
	NewCache(Config{SizeBytes: 32, Ways: 1})
}

func newH() *Hierarchy {
	cfg := DefaultHierarchyConfig()
	cfg.Cores = 4
	// Small caches so tests exercise evictions.
	cfg.L1 = Config{SizeBytes: 4 << 10, Ways: 4}
	cfg.L2 = Config{SizeBytes: 16 << 10, Ways: 4}
	cfg.L3 = Config{SizeBytes: 64 << 10, Ways: 8}
	return NewHierarchy(cfg)
}

func TestHierarchyFirstAccessGoesToMemory(t *testing.T) {
	h := newH()
	res := h.Access(0, 0x1000, false, SrcApp)
	if res.Level != LevelMemory {
		t.Fatalf("level = %v, want memory", res.Level)
	}
	if res.Latency < 2+6+20+120 {
		t.Fatalf("latency = %d, want at least full path", res.Latency)
	}
	// Second access: L1 hit.
	res = h.Access(0, 0x1000, false, SrcApp)
	if res.Level != LevelL1 || res.Latency != 2 {
		t.Fatalf("repeat access = %+v, want L1/2", res)
	}
}

func TestHierarchySharedReadThenL3Hit(t *testing.T) {
	h := newH()
	h.Access(0, 0x2000, false, SrcApp)
	res := h.Access(1, 0x2000, false, SrcApp)
	if res.Level != LevelL3 {
		t.Fatalf("second core level = %v, want L3", res.Level)
	}
	// Both cores now hit locally.
	if r := h.Access(0, 0x2000, false, SrcApp); r.Level != LevelL1 {
		t.Fatalf("core 0 = %v", r.Level)
	}
	if r := h.Access(1, 0x2000, false, SrcApp); r.Level != LevelL1 {
		t.Fatalf("core 1 = %v", r.Level)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	h := newH()
	h.Access(0, 0x3000, false, SrcApp)
	h.Access(1, 0x3000, false, SrcApp)
	// Core 2 writes: cores 0 and 1 lose their copies.
	h.Access(2, 0x3000, true, SrcApp)
	if h.L1(0).Peek(0x3000) != nil || h.L1(1).Peek(0x3000) != nil {
		t.Fatal("write did not invalidate sharers")
	}
	l := h.L1(2).Peek(0x3000)
	if l == nil || l.state != Modified {
		t.Fatal("writer does not hold the line Modified")
	}
}

func TestDirtyLineSuppliedToReader(t *testing.T) {
	h := newH()
	h.Access(0, 0x4000, true, SrcApp) // core 0 dirties the line
	res := h.Access(1, 0x4000, false, SrcApp)
	if res.Level != LevelRemote {
		t.Fatalf("reader serviced from %v, want remote cache", res.Level)
	}
	// Owner's copy is downgraded to Shared.
	if l := h.L1(0).Peek(0x4000); l == nil || l.state != Shared {
		t.Fatal("dirty owner not downgraded")
	}
}

func TestWriteUpgradeFromShared(t *testing.T) {
	h := newH()
	h.Access(0, 0x5000, false, SrcApp)
	h.Access(1, 0x5000, false, SrcApp) // both Shared
	h.Access(0, 0x5000, true, SrcApp)  // upgrade
	if h.L1(1).Peek(0x5000) != nil {
		t.Fatal("upgrade did not invalidate the other sharer")
	}
	if l := h.L1(0).Peek(0x5000); l == nil || l.state != Modified || !l.dirty {
		t.Fatal("upgrading writer not Modified+dirty")
	}
}

func TestL3EvictionBackInvalidatesPrivates(t *testing.T) {
	h := newH()
	// Fill one L3 set beyond capacity from core 0; inclusive L3 must purge
	// private copies of evicted lines.
	sets := uint64(h.L3().Sets())
	var addrs []uint64
	for i := uint64(0); i < 9; i++ { // 8 ways + 1
		addrs = append(addrs, i*sets*LineSize) // all map to set 0
	}
	for _, a := range addrs {
		h.Access(0, a, false, SrcApp)
	}
	evicted := 0
	for _, a := range addrs {
		if h.L3().Peek(a) == nil {
			evicted++
			if h.L1(0).Peek(a) != nil || h.L2(0).Peek(a) != nil {
				t.Fatal("inclusive L3 evicted a line still cached privately")
			}
		}
	}
	if evicted == 0 {
		t.Fatal("no L3 eviction occurred")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	h := newH()
	writebacks := 0
	h.MemAccess = func(addr uint64, write bool) uint64 {
		if write {
			writebacks++
		}
		return 100
	}
	sets := uint64(h.L3().Sets())
	// Dirty a line, then stream enough same-set lines to force it out.
	h.Access(0, 0, true, SrcApp)
	for i := uint64(1); i <= 16; i++ {
		h.Access(0, i*sets*LineSize, false, SrcApp)
	}
	if h.L3().Peek(0) != nil {
		t.Skip("victim unexpectedly survived; LRU kept it")
	}
	if writebacks == 0 {
		t.Fatal("dirty eviction did not write back to memory")
	}
}

func TestProbeNetwork(t *testing.T) {
	h := newH()
	if h.ProbeNetwork(0x6000) {
		t.Fatal("probe hit on uncached line")
	}
	h.Access(0, 0x6000, true, SrcApp)
	if !h.ProbeNetwork(0x6000) {
		t.Fatal("probe missed a cached (dirty) line")
	}
	// The dirty owner is downgraded so the supplied data is current.
	if l := h.L1(0).Peek(0x6000); l == nil || l.state == Modified {
		t.Fatal("probe did not downgrade dirty owner")
	}
	if h.NetworkProbes != 2 || h.NetworkProbeHits != 1 {
		t.Fatalf("probe stats %d/%d", h.NetworkProbes, h.NetworkProbeHits)
	}
	// Probes must not allocate anywhere.
	if h.L1(1).Peek(0x6000) != nil {
		t.Fatal("probe allocated in a cache")
	}
}

func TestL3SourceAttribution(t *testing.T) {
	h := newH()
	h.Access(0, 0x7000, false, SrcApp)
	h.Access(1, 0x8000, false, SrcKSM)
	if h.L3AccessBySource[SrcApp] != 1 || h.L3AccessBySource[SrcKSM] != 1 {
		t.Fatalf("access attribution %v", h.L3AccessBySource)
	}
	if h.L3MissBySource[SrcApp] != 1 || h.L3MissBySource[SrcKSM] != 1 {
		t.Fatalf("miss attribution %v", h.L3MissBySource)
	}
}

func TestStreamingPollutesL3(t *testing.T) {
	// An app with a small hot set hits in L3 until a KSM-like streaming
	// sweep displaces it: the mechanism behind Table 4's miss-rate rise.
	h := newH()
	hot := []uint64{0, 64, 128, 192, 256, 320}
	for _, a := range hot {
		h.Access(0, a, false, SrcApp)
	}
	// Verify residency.
	for _, a := range hot {
		if h.L3().Peek(a) == nil {
			t.Fatal("hot set not resident")
		}
	}
	// Stream 4x the L3 capacity from another core.
	capLines := uint64(64 << 10 / LineSize)
	for i := uint64(0); i < 4*capLines; i++ {
		h.Access(3, 0x100000+i*LineSize, false, SrcKSM)
	}
	resident := 0
	for _, a := range hot {
		if h.L3().Peek(a) != nil {
			resident++
		}
	}
	if resident == len(hot) {
		t.Fatal("streaming sweep displaced nothing")
	}
}

func TestCoherenceInvariantSingleWriter(t *testing.T) {
	// Property: after any random access sequence, a Modified line in one
	// core's cache implies no other core holds it.
	r := sim.NewRNG(7)
	h := newH()
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = uint64(i) * LineSize
	}
	for op := 0; op < 5000; op++ {
		core := r.Intn(4)
		addr := addrs[r.Intn(len(addrs))]
		h.Access(core, addr, r.Bool(0.3), SrcApp)
	}
	for _, a := range addrs {
		owners, holders := 0, 0
		for c := 0; c < 4; c++ {
			st := Invalid
			if l := h.L1(c).Peek(a); l != nil {
				st = l.state
			} else if l := h.L2(c).Peek(a); l != nil {
				st = l.state
			}
			if st != Invalid {
				holders++
			}
			if st == Modified || st == Exclusive {
				owners++
			}
		}
		if owners > 1 {
			t.Fatalf("line %#x has %d exclusive owners", a, owners)
		}
		if owners == 1 && holders > 1 {
			t.Fatalf("line %#x exclusive but %d holders", a, holders)
		}
	}
}

func TestStateAndLevelStrings(t *testing.T) {
	for s, want := range map[MESI]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", MESI(9): "?"} {
		if s.String() != want {
			t.Errorf("MESI(%d) = %q, want %q", s, s.String(), want)
		}
	}
	for l, want := range map[Level]string{
		LevelL1: "L1", LevelL2: "L2", LevelL3: "L3",
		LevelRemote: "remote", LevelMemory: "memory", Level(9): "?",
	} {
		if l.String() != want {
			t.Errorf("Level(%d) = %q, want %q", l, l.String(), want)
		}
	}
}

func TestHierarchyStatsHelpers(t *testing.T) {
	h := newH()
	if h.Cores() != 4 {
		t.Fatalf("Cores = %d", h.Cores())
	}
	h.Access(0, 0x100, false, SrcApp) // L3 miss
	h.Access(1, 0x100, false, SrcApp) // L3 hit
	if mr := h.L3MissRate(); mr != 0.5 {
		t.Fatalf("L3MissRate = %g, want 0.5", mr)
	}
	h.NetworkProbes = 7
	h.Writebacks = 3
	h.ResetStats()
	if h.L3MissRate() != 0 || h.NetworkProbes != 0 || h.Writebacks != 0 {
		t.Fatal("ResetStats incomplete")
	}
	if h.L3AccessBySource[SrcApp] != 0 {
		t.Fatal("source attribution not reset")
	}
	// Contents survive the reset: still an L1 hit.
	if r := h.Access(0, 0x100, false, SrcApp); r.Level != LevelL1 {
		t.Fatalf("reset disturbed cache contents: %v", r.Level)
	}
}

func TestUnsupportedCoreCountPanics(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.Cores = 99
	defer func() {
		if recover() == nil {
			t.Fatal("99 cores accepted (sharer bitmap is 16-wide)")
		}
	}()
	NewHierarchy(cfg)
}

func TestWriteToL2ResidentSharedLine(t *testing.T) {
	// A line Shared in L1+L2 of two cores; one core's L1 evicts it (L2
	// keeps it); then that core writes: the L2-hit write path must upgrade
	// and invalidate the other core.
	h := newH()
	h.Access(0, 0x9000, false, SrcApp)
	h.Access(1, 0x9000, false, SrcApp)
	// Evict core 0's L1 copy by filling its set.
	l1sets := uint64(h.L1(0).Sets())
	for i := uint64(1); i <= 8; i++ {
		h.Access(0, 0x9000+i*l1sets*LineSize, false, SrcApp)
	}
	if h.L1(0).Peek(0x9000) != nil {
		t.Skip("L1 victim survived; LRU kept it")
	}
	if h.L2(0).Peek(0x9000) == nil {
		t.Skip("L2 copy also evicted")
	}
	res := h.Access(0, 0x9000, true, SrcApp)
	if res.Level != LevelL2 {
		t.Fatalf("write serviced at %v, want L2", res.Level)
	}
	if h.L1(1).Peek(0x9000) != nil || h.L2(1).Peek(0x9000) != nil {
		t.Fatal("L2-hit write upgrade did not invalidate the other sharer")
	}
	if l := h.L1(0).Peek(0x9000); l == nil || l.state != Modified {
		t.Fatal("writer not Modified after L2-hit write")
	}
}

// TestHierarchyAccessZeroAlloc pins the cache model's hot path: once the
// caches are warm, a coherent access allocates nothing, whether it hits a
// private level or fills L1 and L2 from the L3 or memory.
func TestHierarchyAccessZeroAlloc(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	rng := sim.NewRNG(3)
	const lines = 1 << 20 // 64 MB of lines: twice the L3
	access := func() {
		h.Access(rng.Intn(h.Cores()), uint64(rng.Intn(lines))*LineSize, rng.Bool(0.3), SrcApp)
	}
	for i := 0; i < 1<<16; i++ {
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
		t.Errorf("warm Access made %v allocations per %d calls, want 0", allocs, calls)
	}
}
