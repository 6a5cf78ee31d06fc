// Package dram models the main memory of Table 2: 16GB over 2 channels,
// 8 ranks/channel, 8 banks/rank, DDR at 1GHz (2 CPU cycles per memory
// cycle), with per-bank row buffers and open-page policy. Requests are
// serviced in arrival order; queueing delay emerges from bank and channel
// bus occupancy, which is the first-order behaviour an FR-FCFS controller
// exposes to a small number of outstanding streams.
//
// The model counts bytes per traffic source (TotalBytes); Figure 11's
// dedup bandwidth is the dedup sources' byte volume over the mass-merging
// phase.
package dram

import (
	"fmt"
	"math/bits"
)

// Source attributes DRAM traffic for bandwidth accounting.
type Source int

// Traffic sources.
const (
	SrcCore      Source = iota // demand traffic from the cores/caches
	SrcKSM                     // software page-deduplication traffic
	SrcPageForge               // PageForge engine traffic
	SrcScrub                   // patrol-scrub background traffic
	numSources
)

// Sources lists every traffic source, for per-source accounting walks
// (the observability layer's bandwidth breakdowns).
func Sources() []Source {
	return []Source{SrcCore, SrcKSM, SrcPageForge, SrcScrub}
}

// String renders the source.
func (s Source) String() string {
	switch s {
	case SrcCore:
		return "core"
	case SrcKSM:
		return "ksm"
	case SrcPageForge:
		return "pageforge"
	case SrcScrub:
		return "scrub"
	default:
		return "?"
	}
}

// Config describes the memory system geometry and timing. All timing is in
// CPU cycles (2 GHz core, 1 GHz DDR memory clock: one memory cycle is two
// CPU cycles).
type Config struct {
	Channels     int
	RanksPerChan int
	BanksPerRank int
	RowBytes     int    // row-buffer size per bank
	LineBytes    int    // transfer granularity (cache line)
	TRCD         uint64 // activate-to-read, CPU cycles
	TRP          uint64 // precharge, CPU cycles
	TCL          uint64 // CAS latency, CPU cycles
	TBurst       uint64 // data burst occupancy of the channel bus
	CtrlOverhead uint64 // fixed controller/queue overhead per access
}

// DefaultConfig is the Table 2 memory system with DDR-1GHz-class timing.
func DefaultConfig() Config {
	return Config{
		Channels:     2,
		RanksPerChan: 8,
		BanksPerRank: 8,
		RowBytes:     8 << 10,
		LineBytes:    64,
		TRCD:         28,
		TRP:          28,
		TCL:          28,
		TBurst:       8,
		CtrlOverhead: 12,
	}
}

type bank struct {
	openRow  int64 // -1: closed
	nextFree uint64
	bgOwned  bool // the pending occupancy belongs to background traffic
}

type channel struct {
	busFree uint64
	bgOwned bool
}

// Stats summarizes DRAM activity.
type Stats struct {
	Reads      uint64
	Writes     uint64
	RowHits    uint64
	RowMisses  uint64 // row conflict: precharge + activate
	RowCloseds uint64 // activate on a closed bank
	BytesBySrc [numSources]uint64
	// Queueing decomposition, per source: cycles spent waiting for a busy
	// bank and for the channel data bus.
	BankWaitBySrc [numSources]uint64
	BusWaitBySrc  [numSources]uint64
	AccessBySrc   [numSources]uint64
}

// DRAM is the memory system model.
type DRAM struct {
	cfg   Config
	banks [][]bank // [channel][rank*banksPerRank]
	chans []channel
	dec   decoder // Decode's shifts and masks

	Stats Stats
	// Per-bank accounting for the observability layer: accesses and
	// row-buffer hits, indexed [channel][rank*banksPerRank+bank].
	bankAccess  [][]uint64
	bankRowHits [][]uint64
}

// New builds an idle memory system. It panics on a geometry it cannot
// decode: a dimension below one or one that is not a power of two.
func New(cfg Config) *DRAM {
	dec, ok := newDecoder(cfg)
	if !ok || cfg.Channels < 1 || cfg.BanksPerRank < 1 || cfg.RanksPerChan < 1 {
		panic(fmt.Sprintf("dram: bad config %+v", cfg))
	}
	d := &DRAM{cfg: cfg, chans: make([]channel, cfg.Channels), dec: dec}
	for c := 0; c < cfg.Channels; c++ {
		banks := make([]bank, cfg.RanksPerChan*cfg.BanksPerRank)
		for i := range banks {
			banks[i].openRow = -1
		}
		d.banks = append(d.banks, banks)
		d.bankAccess = append(d.bankAccess, make([]uint64, len(banks)))
		d.bankRowHits = append(d.bankRowHits, make([]uint64, len(banks)))
	}
	return d
}

// Geometry describes where an address lands.
type Geometry struct {
	Channel int
	Bank    int // rank*banksPerRank + bank, within the channel
	Row     int64
}

// Decode maps a physical address to channel/bank/row. Consecutive lines
// interleave across channels first, then across banks, so streams spread
// over the whole memory system (the interleaving the paper describes).
// Every dimension is a power of two (New rejects other geometries), so the
// line, channel, bank and row divisions are shifts and masks.
func (d *DRAM) Decode(addr uint64) Geometry {
	k := &d.dec
	lineN := addr >> k.lineShift
	rest := lineN >> k.chanShift
	return Geometry{
		Channel: int(lineN & k.chanMask),
		Bank:    int(rest & k.bankMask),
		Row:     int64(rest >> k.bankShift >> k.rowShift),
	}
}

// decoder is Decode's shift-and-mask form of a power-of-two geometry.
type decoder struct {
	lineShift, chanShift, bankShift, rowShift uint
	chanMask, bankMask                        uint64
}

// newDecoder builds the shift-and-mask decoder of cfg, reporting false when
// a dimension Decode divides by is below one or not a power of two.
func newDecoder(cfg Config) (decoder, bool) {
	dims := [4]int{cfg.LineBytes, cfg.Channels, cfg.RanksPerChan * cfg.BanksPerRank, 0}
	if cfg.LineBytes > 0 {
		dims[3] = cfg.RowBytes / cfg.LineBytes
	}
	var sh [4]uint
	for i, n := range dims {
		if n <= 0 || n&(n-1) != 0 {
			return decoder{}, false
		}
		sh[i] = uint(bits.TrailingZeros(uint(n)))
	}
	return decoder{
		lineShift: sh[0], chanShift: sh[1], bankShift: sh[2], rowShift: sh[3],
		chanMask: uint64(dims[1]) - 1, bankMask: uint64(dims[2]) - 1,
	}, true
}

// Access services one line-sized request arriving at cycle now and returns
// its latency in CPU cycles.
//
// The controller schedules with demand priority: requests from the cores
// (and the KSM kthread, which *is* a core thread) preempt queued background
// traffic from the PageForge engine, waiting only for the non-preemptible
// residual of an in-flight background access (TCL+TBurst at the bank, one
// burst on the bus). Background reservations are pushed back rather than
// canceled. This is what keeps PageForge's aggressive streaming from
// inflating demand latency (§3.2.2's request buffers + §6.3's ~10%
// overhead); without priority, the engine's near-continuous line fetches
// would starve the cores.
func (d *DRAM) Access(addr uint64, now uint64, write bool, src Source) uint64 {
	g := d.Decode(addr)
	bk := &d.banks[g.Channel][g.Bank]
	chn := &d.chans[g.Channel]
	// Core and KSM traffic is demand-class; PageForge and the patrol
	// scrubber are background-class and yield to it.
	demand := src == SrcCore || src == SrcKSM

	start := now + d.cfg.CtrlOverhead
	if bk.nextFree > start {
		wait := bk.nextFree - start
		if demand && bk.bgOwned {
			if res := d.cfg.TCL + d.cfg.TBurst; wait > res {
				wait = res
			}
		}
		d.Stats.BankWaitBySrc[src] += wait
		start += wait
	}
	d.Stats.AccessBySrc[src]++
	d.bankAccess[g.Channel][g.Bank]++

	var access uint64
	switch {
	case bk.openRow == g.Row:
		d.Stats.RowHits++
		d.bankRowHits[g.Channel][g.Bank]++
		access = d.cfg.TCL
	case bk.openRow == -1:
		d.Stats.RowCloseds++
		access = d.cfg.TRCD + d.cfg.TCL
	default:
		d.Stats.RowMisses++
		access = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCL
	}
	bk.openRow = g.Row

	dataReady := start + access
	// The channel bus must be free for the burst.
	if chn.busFree > dataReady {
		wait := chn.busFree - dataReady
		if demand && chn.bgOwned && wait > d.cfg.TBurst {
			wait = d.cfg.TBurst
		}
		d.Stats.BusWaitBySrc[src] += wait
		dataReady += wait
	}
	done := dataReady + d.cfg.TBurst
	// Preempted background reservations are pushed back, not canceled; the
	// tail of the reservation then still belongs to background traffic, so
	// ownership only changes when this access extends the reservation.
	if done > chn.busFree {
		chn.busFree = done
		chn.bgOwned = !demand
	} else {
		chn.busFree += d.cfg.TBurst
	}
	if done > bk.nextFree {
		bk.nextFree = done
		bk.bgOwned = !demand
	} else {
		bk.nextFree += d.cfg.TCL
	}

	if write {
		d.Stats.Writes++
	} else {
		d.Stats.Reads++
	}
	d.Stats.BytesBySrc[src] += uint64(d.cfg.LineBytes)

	return done - now
}

// TotalBytes reports all bytes transferred for a source.
func (d *DRAM) TotalBytes(src Source) uint64 { return d.Stats.BytesBySrc[src] }

// RowHitRate reports the fraction of accesses that hit an open row.
func (d *DRAM) RowHitRate() float64 {
	t := d.Stats.RowHits + d.Stats.RowMisses + d.Stats.RowCloseds
	if t == 0 {
		return 0
	}
	return float64(d.Stats.RowHits) / float64(t)
}

// Config returns the configuration (read-only use).
func (d *DRAM) Config() Config { return d.cfg }

// BankAccesses reports per-bank access counts, indexed
// [channel][rank*banksPerRank+bank]. The returned slices are the live
// accounting arrays — read-only for callers.
func (d *DRAM) BankAccesses() [][]uint64 { return d.bankAccess }

// BankRowHits reports per-bank row-buffer hit counts, same indexing as
// BankAccesses.
func (d *DRAM) BankRowHits() [][]uint64 { return d.bankRowHits }
