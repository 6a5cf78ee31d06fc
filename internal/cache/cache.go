// Package cache models the shared L3 the measurement phase samples
// application and kthread traffic against: one set-associative array with
// LRU replacement and hit/miss statistics, allocating on miss.
//
// The cache model serves two purposes in the reproduction: it produces the
// L3 miss rates of Table 4 (KSM's streaming comparisons pollute the shared
// L3), and it answers PageForge's "issue the request to the on-chip network
// first" probes (Section 3.5) — a scanned line that is cached must be
// supplied by the network, not the DRAM.
package cache

import "fmt"

// LineSize is the cache-line size in bytes (Table 2: 64B everywhere).
const LineSize = 64

// Config describes one cache array.
type Config struct {
	SizeBytes int
	Ways      int
}

// Sets reports the number of sets (rounded down for non-power-of-two
// organizations such as the 32MB 20-way L3).
func (c Config) Sets() int {
	s := c.SizeBytes / (LineSize * c.Ways)
	if s < 1 {
		s = 1
	}
	return s
}

// line is one way of the tag store. key is the line number plus one, so
// the zero value is an invalid way.
type line struct {
	key uint64
	lru uint64
}

// Cache is one set-associative cache array.
type Cache struct {
	ways  int
	nsets uint64
	lines []line // set-major: set s holds lines[s*ways : (s+1)*ways]
	tick  uint64

	Hits   uint64
	Misses uint64
}

// NewCache builds an empty cache.
func NewCache(cfg Config) *Cache {
	if cfg.Ways < 1 || cfg.SizeBytes < LineSize*cfg.Ways {
		panic(fmt.Sprintf("cache: bad config %+v", cfg))
	}
	sets := cfg.Sets()
	return &Cache{ways: cfg.Ways, nsets: uint64(sets), lines: make([]line, sets*cfg.Ways)}
}

// set returns the ways of the line's set and the line's tag-store key.
func (c *Cache) set(addr uint64) ([]line, uint64) {
	n := addr / LineSize
	s := int(n % c.nsets)
	return c.lines[s*c.ways : (s+1)*c.ways], n + 1
}

// find returns the way holding the line, or nil.
func (c *Cache) find(addr uint64) *line {
	set, key := c.set(addr)
	for i := range set {
		if set[i].key == key {
			return &set[i]
		}
	}
	return nil
}

// Lookup reports whether the line is present, updating hit/miss counters
// and LRU on hit.
func (c *Cache) Lookup(addr uint64) bool {
	if l := c.find(addr); l != nil {
		c.tick++
		l.lru = c.tick
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// Peek is Lookup without statistics or LRU side effects (network probes).
func (c *Cache) Peek(addr uint64) bool { return c.find(addr) != nil }

// Insert allocates the line as most recently used, displacing the set's
// first invalid way, else its least recently used one.
func (c *Cache) Insert(addr uint64) {
	set, key := c.set(addr)
	victim := &set[0]
	for i := range set {
		if set[i].key == 0 {
			victim = &set[i]
			break
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	c.tick++
	*victim = line{key: key, lru: c.tick}
}

// Occupancy reports the fraction of ways holding valid lines; tests use it.
func (c *Cache) Occupancy() float64 {
	valid := 0
	for i := range c.lines {
		if c.lines[i].key != 0 {
			valid++
		}
	}
	return float64(valid) / float64(len(c.lines))
}

// MissRate reports misses / (hits+misses), 0 when idle.
func (c *Cache) MissRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Misses) / float64(t)
}

// ResetStats zeroes the hit/miss counters (warm-up handling).
func (c *Cache) ResetStats() { c.Hits, c.Misses = 0, 0 }
