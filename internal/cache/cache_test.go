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
		if c.Lookup(a) {
			t.Fatal("hit in empty cache")
		}
		c.Insert(a)
	}
	for _, a := range addrs {
		if !c.Lookup(a) {
			t.Fatalf("miss on resident line %d", a)
		}
	}
	// Touch 0 to make it MRU, then insert a 5th line: the LRU line (64)
	// goes, the MRU line stays.
	c.Lookup(0)
	c.Insert(256)
	if c.Peek(64) {
		t.Fatal("LRU line survived a full-set insert")
	}
	if !c.Peek(0) || !c.Peek(256) {
		t.Fatal("MRU or inserted line gone")
	}
}

func TestCacheMissRateAndOccupancy(t *testing.T) {
	c := NewCache(Config{SizeBytes: 8 * LineSize, Ways: 2})
	c.Lookup(0) // miss
	c.Insert(0)
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

// TestHierarchyStatsHelpers checks the shared L3's statistics as the
// measurement window uses them: one miss rate over every core's lookups,
// and a warm-up reset that zeroes the counters but keeps the contents.
func TestHierarchyStatsHelpers(t *testing.T) {
	c := NewCache(Config{SizeBytes: 8 * LineSize, Ways: 2})
	if c.Lookup(0x100) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(0x100)       // the first core's miss fills the line
	if !c.Lookup(0x100) { // a second core finds it in the shared L3
		t.Fatal("shared line missed")
	}
	if mr := c.MissRate(); mr != 0.5 {
		t.Fatalf("MissRate = %g, want 0.5", mr)
	}
	c.ResetStats()
	if c.Hits != 0 || c.Misses != 0 || c.MissRate() != 0 {
		t.Fatalf("ResetStats incomplete: %d hits, %d misses", c.Hits, c.Misses)
	}
	// Contents survive the reset: the next lookup is a hit, counted from zero.
	if !c.Lookup(0x100) || c.Hits != 1 || c.Misses != 0 {
		t.Fatalf("reset disturbed cache contents: %d hits, %d misses", c.Hits, c.Misses)
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

// TestProbeNetwork checks the L3 side of PageForge's network probe
// (Section 3.5): Peek finds exactly the resident lines and, unlike Lookup,
// moves neither the hit/miss counters nor the LRU order.
func TestProbeNetwork(t *testing.T) {
	c := NewCache(Config{SizeBytes: 2 * LineSize, Ways: 2}) // 1 set, 2 ways
	if c.Peek(0x6000) {
		t.Fatal("probe hit on uncached line")
	}
	c.Insert(0x6000)
	c.Insert(0x7000)
	if !c.Peek(0x6000) {
		t.Fatal("probe missed a cached line")
	}
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatalf("probes moved the stats: %d hits, %d misses", c.Hits, c.Misses)
	}
	// 0x6000 is still LRU despite the probe, so the next fill displaces it.
	c.Insert(0x8000)
	if c.Peek(0x6000) || !c.Peek(0x7000) {
		t.Fatal("probe refreshed the line's LRU position")
	}
}

func TestStreamingPollutesL3(t *testing.T) {
	// An app with a small hot set hits in the L3 until a KSM-like
	// streaming sweep displaces it: the mechanism behind Table 4's
	// miss-rate rise.
	const size = 64 << 10
	c := NewCache(Config{SizeBytes: size, Ways: 8})
	hot := []uint64{0, 64, 128, 192, 256, 320}
	for _, a := range hot {
		if !c.Lookup(a) {
			c.Insert(a)
		}
	}
	for _, a := range hot {
		if !c.Lookup(a) {
			t.Fatal("hot set not resident")
		}
	}
	// Stream 4x the capacity of never-reused lines.
	for i := uint64(0); i < 4*size/LineSize; i++ {
		a := 0x100000 + i*LineSize
		if !c.Lookup(a) {
			c.Insert(a)
		}
	}
	for _, a := range hot {
		if c.Peek(a) {
			t.Fatalf("line %#x survived a sweep of 4x the capacity", a)
		}
	}
}

// refCache is the tag store as it was before the flat layout: one slice
// of ways per set, a valid flag per way, the same victim rule (first
// invalid way, else least recently used).
type refCache struct {
	sets [][]refLine
	tick uint64
}

type refLine struct {
	tag   uint64
	valid bool
	lru   uint64
}

func (r *refCache) set(addr uint64) []refLine {
	return r.sets[(addr/LineSize)%uint64(len(r.sets))]
}

func (r *refCache) lookup(addr uint64) bool {
	set := r.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == addr/LineSize {
			r.tick++
			set[i].lru = r.tick
			return true
		}
	}
	return false
}

func (r *refCache) insert(addr uint64) {
	set := r.set(addr)
	victim := &set[0]
	for i := range set {
		if !set[i].valid {
			victim = &set[i]
			break
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	r.tick++
	*victim = refLine{tag: addr / LineSize, valid: true, lru: r.tick}
}

// TestMatchesReferenceLRU drives the cache and the reference through the
// same random allocate-on-miss stream, including a non-power-of-two set
// count and line 0, and requires the same verdict on every access.
func TestMatchesReferenceLRU(t *testing.T) {
	for _, cfg := range []Config{{SizeBytes: 64 << 10, Ways: 16}, {SizeBytes: 20 * 3 * LineSize, Ways: 20}} {
		c := NewCache(cfg)
		ref := &refCache{sets: make([][]refLine, cfg.Sets())}
		for i := range ref.sets {
			ref.sets[i] = make([]refLine, cfg.Ways)
		}
		rng := sim.NewRNG(11)
		lines := 4 * cfg.SizeBytes / LineSize
		for i := 0; i < 200_000; i++ {
			a := uint64(rng.Intn(lines))*LineSize + uint64(rng.Intn(LineSize))
			got, want := c.Lookup(a), ref.lookup(a)
			if got != want {
				t.Fatalf("%+v access %d (%#x): hit=%v, reference %v", cfg, i, a, got, want)
			}
			if !got {
				c.Insert(a)
				ref.insert(a)
			}
		}
		if c.Hits == 0 || c.Misses == 0 {
			t.Fatalf("%+v: stream exercised only one outcome (%d hits, %d misses)", cfg, c.Hits, c.Misses)
		}
	}
}
