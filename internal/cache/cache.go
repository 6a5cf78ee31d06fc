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

import (
	"fmt"
	"math"
	"math/bits"
)

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

// Cache is one set-associative cache array. Its tag store keeps two
// parallel arrays of 32-bit words, 8 bytes a way: a way's tag is its line
// number divided by the set count, plus one, so 0 is an invalid way, and
// its stamp is the access counter's value when the way was last touched,
// so the set's least recently used valid way holds its lowest stamp.
type Cache struct {
	ways   int
	nsets  uint64
	pow2   bool     // nsets is a power of two: index by mask and shift
	shift  uint     // log2(nsets) when pow2
	tags   []uint32 // set-major: set s holds tags[s*ways : (s+1)*ways]
	stamps []uint32 // parallel to tags
	tick   uint32   // the last stamp handed out; 0 until the first insert

	Hits   uint64
	Misses uint64
}

// NewCache builds an empty cache.
func NewCache(cfg Config) *Cache {
	if cfg.Ways < 1 || cfg.SizeBytes < LineSize*cfg.Ways {
		panic(fmt.Sprintf("cache: bad config %+v", cfg))
	}
	sets := cfg.Sets()
	return &Cache{
		ways:   cfg.Ways,
		nsets:  uint64(sets),
		pow2:   sets&(sets-1) == 0,
		shift:  uint(bits.TrailingZeros64(uint64(sets))),
		tags:   make([]uint32, sets*cfg.Ways),
		stamps: make([]uint32, sets*cfg.Ways),
	}
}

// set returns the index of the first way of the line's set and the line's
// tag. A line whose tag does not fit 32 bits panics: every address the
// simulator issues is far below that.
func (c *Cache) set(addr uint64) (int, uint32) {
	n := addr / LineSize
	var s, t uint64
	if c.pow2 {
		s, t = n&(c.nsets-1), n>>c.shift
	} else {
		s, t = n%c.nsets, n/c.nsets
	}
	if t >= math.MaxUint32 {
		panic(fmt.Sprintf("cache: address %#x does not fit the 32-bit tag store", addr))
	}
	return int(s) * c.ways, uint32(t) + 1
}

// find returns the index of the way holding the line, or -1.
func (c *Cache) find(addr uint64) int {
	base, tag := c.set(addr)
	for i, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return base + i
		}
	}
	return -1
}

// stamp hands out the next access stamp, renumbering the sets' stamps
// first when the counter would wrap.
func (c *Cache) stamp() uint32 {
	if c.tick == math.MaxUint32 {
		c.renumber()
	}
	c.tick++
	return c.tick
}

// renumber replaces every valid way's stamp by its rank in its set, 1 for
// the least recently used, and restarts the counter at the highest rank.
// Replacement reads only the order of a set's stamps, which ranks keep, so
// every later victim is the one an unbounded counter would pick.
func (c *Cache) renumber() {
	old := make([]uint32, c.ways)
	c.tick = 0
	for base := 0; base < len(c.tags); base += c.ways {
		tags, stamps := c.tags[base:base+c.ways], c.stamps[base:base+c.ways]
		copy(old, stamps)
		for i := range stamps {
			r := uint32(0)
			if tags[i] != 0 {
				for j, s := range old {
					if tags[j] != 0 && s <= old[i] {
						r++
					}
				}
			}
			stamps[i] = r
			c.tick = max(c.tick, r)
		}
	}
}

// Lookup reports whether the line is present, updating hit/miss counters
// and LRU on hit.
func (c *Cache) Lookup(addr uint64) bool {
	if i := c.find(addr); i >= 0 {
		c.stamps[i] = c.stamp()
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// Peek is Lookup without statistics or LRU side effects (network probes).
// Before the first insert the cache holds nothing, so no set is walked.
func (c *Cache) Peek(addr uint64) bool { return c.tick != 0 && c.find(addr) >= 0 }

// Insert allocates the line as most recently used, displacing the set's
// first invalid way, else its least recently used one.
func (c *Cache) Insert(addr uint64) {
	base, tag := c.set(addr)
	tags, stamps := c.tags[base:base+c.ways], c.stamps[base:base+c.ways]
	victim := 0
	for i, t := range tags {
		if t == 0 {
			victim = i
			break
		}
		if stamps[i] < stamps[victim] {
			victim = i
		}
	}
	s := c.stamp()
	tags[victim], stamps[victim] = tag, s
}

// Occupancy reports the fraction of ways holding valid lines; tests use it.
func (c *Cache) Occupancy() float64 {
	valid := 0
	for _, t := range c.tags {
		if t != 0 {
			valid++
		}
	}
	return float64(valid) / float64(len(c.tags))
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
