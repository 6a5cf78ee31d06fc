// Package faults is the deterministic DRAM fault model of the RAS layer.
// It sits between the storage array and the memory controller's SECDED
// decoder (memctrl consumes it through its FaultModel interface) and
// injects the canonical DRAM failure classes field studies report:
//
//   - transient single-bit upsets per read (particle strikes, marginal
//     sensing) — always corrected by SECDED and healed by a re-read;
//   - transient double-bit upsets per read — uncorrectable, but a bounded
//     re-read usually returns clean data;
//   - persistent stuck word pairs — hard faults that no retry or scrub
//     heals, the quarantine policy's target.
//
// Everything derives from one seed through sim.RNG streams, so a fixed
// access sequence produces a bit-identical fault schedule: experiments stay
// reproducible and sequential and parallel suite runs agree.
package faults

import (
	"sort"

	"repro/internal/mem"
	"repro/internal/sim"
)

// lineBits is the number of data bits in one 64B line.
const lineBits = mem.LineSize * 8

// wordBits is the SECDED codeword data width.
const wordBits = 64

// Config describes the injected fault population. The zero value is a
// fault-free DIMM (Enabled reports false).
type Config struct {
	// Seed derives every placement and draw; equal seeds give bit-identical
	// fault schedules for the same access sequence.
	Seed uint64
	// TransientPerRead is the probability that one line read suffers a
	// transient single-bit upset (SECDED-correctable; heals on re-read).
	TransientPerRead float64
	// DoubleBitPerRead is the probability that one line read suffers a
	// transient double-bit upset within one 64-bit word (uncorrectable
	// poison; a re-read usually heals it).
	DoubleBitPerRead float64
	// StuckUEWords places this many word-aligned stuck-at bit *pairs*:
	// lines that read uncorrectably for any content disagreeing with both
	// cells. These never heal — the quarantine policy's target.
	StuckUEWords int
	// Frames is the physical frame count the hard-fault population
	// scatters over (required when StuckUEWords is set).
	Frames int
}

// Enabled reports whether the configuration injects any faults at all.
func (c Config) Enabled() bool {
	return c.TransientPerRead > 0 || c.DoubleBitPerRead > 0 || c.StuckUEWords > 0
}

// stuckCell is one hard-failed bit: it always reads as value set.
type stuckCell struct {
	bit int
	set bool
}

// Model is a deterministic fault injector for one DIMM. It satisfies
// memctrl's FaultModel interface structurally (Corrupt).
type Model struct {
	cfg   Config
	rng   *sim.RNG               // per-read transient draws
	stuck map[uint64][]stuckCell // line addr -> hard-failed cells
	// boost is a live multiplier on the per-read transient/double-bit
	// rates (1 = nominal). A fault-storm window raises it temporarily; it
	// only amplifies an existing population (a zero base rate stays zero),
	// and it never changes how many RNG draws a read consumes, so toggling
	// it cannot desynchronize the fault stream. It is deliberately not
	// checkpointed: the platform re-derives it from its (checkpointed)
	// storm window at the top of every pass.
	boost float64
}

// NewModel builds the fault population from the configuration. Stuck-word
// placement consumes a placement stream forked from the seed, so the same
// seed always fails the same cells.
func NewModel(cfg Config) *Model {
	m := &Model{
		cfg:   cfg,
		rng:   sim.NewRNG(cfg.Seed ^ 0x0DD5EED5),
		stuck: make(map[uint64][]stuckCell),
		boost: 1,
	}
	frames := cfg.Frames
	if frames <= 0 {
		frames = 1
	}
	place := sim.NewRNG(cfg.Seed ^ 0x57C4C311)
	for i := 0; i < cfg.StuckUEWords; i++ {
		addr := m.randLineAddr(place, frames)
		w := place.Intn(mem.LineSize * 8 / wordBits)
		b1 := place.Intn(wordBits)
		b2 := (b1 + 1 + place.Intn(wordBits-1)) % wordBits
		m.stuck[addr] = append(m.stuck[addr],
			stuckCell{bit: w*wordBits + b1, set: place.Bool(0.5)},
			stuckCell{bit: w*wordBits + b2, set: place.Bool(0.5)})
	}
	return m
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// SetRateBoost sets the live multiplier on the per-read transient and
// double-bit rates (values below 1 clamp to 1). Fault-storm windows raise
// it and nominal passes reset it.
func (m *Model) SetRateBoost(b float64) {
	if b < 1 {
		b = 1
	}
	m.boost = b
}

// rate applies the live boost to a configured per-read probability,
// capping at certainty.
func (m *Model) rate(p float64) float64 {
	if m.boost <= 1 {
		return p
	}
	if p *= m.boost; p > 1 {
		return 1
	}
	return p
}

func (m *Model) randLineAddr(r *sim.RNG, frames int) uint64 {
	pfn := r.Intn(frames)
	li := r.Intn(mem.LinesPerPage)
	return uint64(mem.PFN(pfn).LineAddr(li))
}

// StuckLines reports the line addresses carrying hard faults, sorted.
// Diagnostics and tests use it; the controller never peeks.
func (m *Model) StuckLines() []uint64 {
	addrs := make([]uint64, 0, len(m.stuck))
	for a := range m.stuck {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

// Corrupt applies the fault population to one line read: line is the 64B
// data as stored, addr its physical line address, now the read cycle.
// The controller decodes the result against the line's stored ECC code.
func (m *Model) Corrupt(addr, now uint64, line []byte) {
	for _, c := range m.stuck[addr] {
		forceBit(line, c.bit, c.set)
	}
	if m.cfg.TransientPerRead > 0 && m.rng.Bool(m.rate(m.cfg.TransientPerRead)) {
		flipBit(line, m.rng.Intn(lineBits))
	}
	if m.cfg.DoubleBitPerRead > 0 && m.rng.Bool(m.rate(m.cfg.DoubleBitPerRead)) {
		w := m.rng.Intn(lineBits / wordBits)
		b1 := m.rng.Intn(wordBits)
		b2 := (b1 + 1 + m.rng.Intn(wordBits-1)) % wordBits
		flipBit(line, w*wordBits+b1)
		flipBit(line, w*wordBits+b2)
	}
}

func flipBit(line []byte, bit int) {
	line[bit/8] ^= 1 << (bit % 8)
}

// forceBit sets the bit to v.
func forceBit(line []byte, bit int, v bool) {
	mask := byte(1) << (bit % 8)
	if v {
		line[bit/8] |= mask
	} else {
		line[bit/8] &^= mask
	}
}
