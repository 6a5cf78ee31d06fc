package cache

import "fmt"

// Level identifies where an access was serviced.
type Level int

// Service levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelRemote // another core's private cache (dirty snoop hit)
	LevelMemory
)

// String renders the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelRemote:
		return "remote"
	case LevelMemory:
		return "memory"
	default:
		return "?"
	}
}

// HierarchyConfig sizes the hierarchy (defaults follow Table 2).
type HierarchyConfig struct {
	Cores     int
	L1        Config
	L2        Config
	L3        Config
	L1Latency uint64 // round-trip cycles
	L2Latency uint64
	L3Latency uint64
	// MemLatency is used when no memory-controller callback is installed.
	MemLatency uint64
}

// DefaultHierarchyConfig is the Table 2 machine: 10 cores, 32KB/8w L1,
// 256KB/8w L2, 32MB/20w shared L3; 2/6/20-cycle round trips.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		Cores:      10,
		L1:         Config{SizeBytes: 32 << 10, Ways: 8},
		L2:         Config{SizeBytes: 256 << 10, Ways: 8},
		L3:         Config{SizeBytes: 32 << 20, Ways: 20},
		L1Latency:  2,
		L2Latency:  6,
		L3Latency:  20,
		MemLatency: 120,
	}
}

// AccessResult describes one serviced access.
type AccessResult struct {
	Level   Level
	Latency uint64
}

// SourceClass attributes L3 traffic for Table 4's analysis.
type SourceClass int

// Traffic classes.
const (
	SrcApp SourceClass = iota
	SrcKSM
	numSources
)

// Hierarchy is the full on-chip cache system.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  []*Cache
	l2  []*Cache
	l3  *Cache

	// MemAccess, when set, is invoked for every DRAM-level access (line
	// fill or write-back) and returns its latency in cycles. The platform
	// wires this to the memory controller model.
	MemAccess func(addr uint64, write bool) uint64

	// L3AccessBySource / L3MissBySource attribute shared-cache pressure.
	L3AccessBySource [numSources]uint64
	L3MissBySource   [numSources]uint64
	// Writebacks counts dirty lines pushed to memory.
	Writebacks uint64
	// NetworkProbes / NetworkProbeHits count PageForge's coherence probes.
	NetworkProbes    uint64
	NetworkProbeHits uint64
}

// NewHierarchy builds an empty hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if cfg.Cores < 1 || cfg.Cores > 16 {
		panic(fmt.Sprintf("cache: unsupported core count %d", cfg.Cores))
	}
	h := &Hierarchy{cfg: cfg, l3: NewCache(cfg.L3)}
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, NewCache(cfg.L1))
		h.l2 = append(h.l2, NewCache(cfg.L2))
	}
	return h
}

// L1 returns core i's L1 (for tests and stats).
func (h *Hierarchy) L1(i int) *Cache { return h.l1[i] }

// L2 returns core i's L2.
func (h *Hierarchy) L2(i int) *Cache { return h.l2[i] }

// L3 returns the shared cache.
func (h *Hierarchy) L3() *Cache { return h.l3 }

// Cores reports the core count.
func (h *Hierarchy) Cores() int { return h.cfg.Cores }

func (h *Hierarchy) memAccess(addr uint64, write bool) uint64 {
	if h.MemAccess != nil {
		return h.MemAccess(addr, write)
	}
	return h.cfg.MemLatency
}

// Access performs a coherent load or store by core, filling caches along
// the way, and returns where it was serviced and its latency.
func (h *Hierarchy) Access(core int, addr uint64, write bool, src SourceClass) AccessResult {
	lat := h.cfg.L1Latency
	if l := h.l1[core].Lookup(addr); l != nil {
		if write {
			if l.state == Shared {
				// Upgrade: invalidate other sharers.
				lat += h.cfg.L3Latency
				h.invalidateOthers(core, addr)
			}
			h.markDirty(core, addr)
		}
		return AccessResult{LevelL1, lat}
	}
	lat += h.cfg.L2Latency
	if l := h.l2[core].Lookup(addr); l != nil {
		state := l.state
		if write {
			if state == Shared {
				lat += h.cfg.L3Latency
				h.invalidateOthers(core, addr)
				state = Modified
			}
		}
		h.fillPrivate(core, addr, state, 1) // promote into L1
		if write {
			h.markDirty(core, addr)
		}
		return AccessResult{LevelL2, lat}
	}

	// Private miss: go to the shared L3 (directory).
	lat += h.cfg.L3Latency
	h.L3AccessBySource[src]++
	l3line := h.l3.Lookup(addr)
	level := LevelL3
	if l3line == nil {
		// L3 miss: fetch from memory, fill L3.
		h.L3MissBySource[src]++
		lat += h.memAccess(addr, false)
		level = LevelMemory
		ev := h.l3.Insert(addr, Exclusive)
		h.handleL3Eviction(ev)
		l3line = h.l3.Peek(addr)
	} else if l3line.privM {
		// Dirty in some private cache: snoop it back (cache-to-cache).
		lat += h.cfg.L3Latency
		level = LevelRemote
		h.recallDirty(core, addr, l3line)
	}

	state := Shared
	if l3line.sharers == 0 || l3line.sharers == 1<<uint(core) {
		state = Exclusive
	}
	if write {
		h.invalidateOthers(core, addr)
		l3line = h.l3.Peek(addr) // invalidateOthers updates sharer bits
		state = Modified
		l3line.privM = true
		l3line.sharers = 1 << uint(core)
	} else {
		if state == Shared {
			// Downgrade any exclusive/modified holder.
			h.downgradeOthers(core, addr)
			l3line = h.l3.Peek(addr)
		}
		l3line.sharers |= 1 << uint(core)
	}
	h.fillPrivate(core, addr, state, 2)
	if write {
		h.markDirty(core, addr)
	}
	return AccessResult{level, lat}
}

// fillPrivate inserts the line into the core's L1 (levels>=1) and L2
// (levels>=2), handling private-cache evictions (write back dirty victims
// to the L3 / memory and clear directory bits when the last copy leaves).
func (h *Hierarchy) fillPrivate(core int, addr uint64, state MESI, levels int) {
	h.fillOne(core, h.l1[core], addr, state)
	if levels >= 2 {
		h.fillOne(core, h.l2[core], addr, state)
	}
}

// fillOne inserts the line into one of the core's private caches and
// handles the victim it displaces.
func (h *Hierarchy) fillOne(core int, c *Cache, addr uint64, state MESI) {
	if ev := c.Insert(addr, state); ev.Valid {
		h.privateEvict(core, ev)
	}
}

// privateEvict handles a line displaced from a private cache.
func (h *Hierarchy) privateEvict(core int, ev Eviction) {
	// If the twin copy is still in the other private level, the core still
	// holds the line; directory state is unchanged.
	if h.l1[core].Peek(ev.Addr) != nil || h.l2[core].Peek(ev.Addr) != nil {
		if ev.Dirty {
			// Keep dirtiness in the surviving copy.
			h.markDirty(core, ev.Addr)
		}
		return
	}
	l3line := h.l3.Peek(ev.Addr)
	if l3line == nil {
		// The L3 already evicted it (back-invalidation path); dirty data
		// goes straight to memory.
		if ev.Dirty {
			h.Writebacks++
			h.memAccess(ev.Addr, true)
		}
		return
	}
	l3line.sharers &^= 1 << uint(core)
	if ev.Dirty {
		l3line.dirty = true
		l3line.privM = false
	}
	if l3line.sharers == 0 {
		l3line.privM = false
	}
}

// handleL3Eviction back-invalidates private copies (inclusive L3) and
// writes back dirty victims.
func (h *Hierarchy) handleL3Eviction(ev Eviction) {
	if !ev.Valid {
		return
	}
	dirty := ev.Dirty
	for core := 0; core < h.cfg.Cores; core++ {
		if ev.Sharers&(1<<uint(core)) == 0 {
			continue
		}
		if p, d := h.l1[core].Invalidate(ev.Addr); p && d {
			dirty = true
		}
		if p, d := h.l2[core].Invalidate(ev.Addr); p && d {
			dirty = true
		}
	}
	if dirty {
		h.Writebacks++
		h.memAccess(ev.Addr, true)
	}
}

// invalidateOthers removes every other core's copy (write/RFO).
func (h *Hierarchy) invalidateOthers(core int, addr uint64) {
	l3line := h.l3.Peek(addr)
	for c := 0; c < h.cfg.Cores; c++ {
		if c == core {
			continue
		}
		p1, d1 := h.l1[c].Invalidate(addr)
		p2, d2 := h.l2[c].Invalidate(addr)
		if l3line != nil {
			if p1 || p2 {
				l3line.sharers &^= 1 << uint(c)
			}
			if d1 || d2 {
				l3line.dirty = true // absorbed into L3
			}
		}
	}
	if l3line != nil {
		l3line.privM = false
	}
}

// downgradeOthers moves other cores' E/M copies to S, absorbing dirt.
func (h *Hierarchy) downgradeOthers(core int, addr uint64) {
	l3line := h.l3.Peek(addr)
	for c := 0; c < h.cfg.Cores; c++ {
		if c == core {
			continue
		}
		for _, pc := range []*Cache{h.l1[c], h.l2[c]} {
			if l := pc.Peek(addr); l != nil {
				if l.state == Modified || l.dirty {
					if l3line != nil {
						l3line.dirty = true
					}
					l.dirty = false
				}
				l.state = Shared
			}
		}
	}
	if l3line != nil {
		l3line.privM = false
	}
}

// recallDirty pulls a dirty private line back to the L3 when another core
// reads it.
func (h *Hierarchy) recallDirty(requestor int, addr uint64, l3line *line) {
	for c := 0; c < h.cfg.Cores; c++ {
		if c == requestor {
			continue
		}
		for _, pc := range []*Cache{h.l1[c], h.l2[c]} {
			if l := pc.Peek(addr); l != nil && (l.state == Modified || l.dirty) {
				l.state = Shared
				l.dirty = false
				l3line.dirty = true
			}
		}
	}
	l3line.privM = false
}

// markDirty sets the dirty bit + Modified state in the core's caches.
func (h *Hierarchy) markDirty(core int, addr uint64) {
	for _, pc := range []*Cache{h.l1[core], h.l2[core]} {
		if l := pc.Peek(addr); l != nil {
			l.dirty = true
			l.state = Modified
		}
	}
	if l3line := h.l3.Peek(addr); l3line != nil {
		l3line.privM = true
		l3line.sharers |= 1 << uint(core)
	}
}

// ProbeNetwork is PageForge's coherence interaction (Section 3.5): the
// memory controller issues the request on the on-chip network; if any cache
// holds the line, the network supplies the data and no DRAM access happens.
// PageForge has no cache, so probes never change cache state beyond the
// implicit downgrade of a dirty owner (which must supply the latest value).
func (h *Hierarchy) ProbeNetwork(addr uint64) bool {
	h.NetworkProbes++
	if l3line := h.l3.Peek(addr); l3line != nil {
		if l3line.privM {
			h.recallDirty(-1, addr, l3line)
		}
		h.NetworkProbeHits++
		return true
	}
	// Non-inclusive corner: a private copy without an L3 line cannot exist
	// in this model (inclusive), so an L3 miss means memory must supply it.
	return false
}

// L3MissRate reports the overall local L3 miss rate.
func (h *Hierarchy) L3MissRate() float64 { return h.l3.MissRate() }

// ResetStats clears all statistics (after warm-up) without disturbing
// cache contents.
func (h *Hierarchy) ResetStats() {
	for i := range h.l1 {
		h.l1[i].ResetStats()
		h.l2[i].ResetStats()
	}
	h.l3.ResetStats()
	h.L3AccessBySource = [numSources]uint64{}
	h.L3MissBySource = [numSources]uint64{}
	h.Writebacks = 0
	h.NetworkProbes, h.NetworkProbeHits = 0, 0
}
