package ksm

import "repro/internal/ecc"

// ECCHasher computes PageForge's ECC-based page key in software. It exists
// for head-to-head hash-quality experiments (Figure 8): same interface as
// JHasher, but reads only 256B of the page (4 sampled lines) instead of 1KB
// and derives the key from the lines' SECDED codes.
type ECCHasher struct {
	Offsets ecc.KeyOffsets
}

// NewECCHasher returns a hasher with the default sampling offsets.
func NewECCHasher() ECCHasher { return ECCHasher{Offsets: ecc.DefaultKeyOffsets} }

// PageKey implements Hasher.
func (h ECCHasher) PageKey(page []byte) uint32 { return ecc.PageKey(page, h.Offsets) }

// BytesRead implements Hasher: four 64B lines.
func (h ECCHasher) BytesRead() int { return ecc.Sections * ecc.LineSize }

// Span implements Hasher: the page up to the end of the last sampled line.
func (h ECCHasher) Span() int { return (h.Offsets.LineIndex(ecc.Sections-1) + 1) * ecc.LineSize }
