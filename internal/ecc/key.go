package ecc

import "fmt"

// PageSize is the virtual-memory page size of the modeled machine (4KB).
const PageSize = 4096

// Sections is the number of 1KB sections a page is logically divided into
// for hash-key generation (Figure 6 of the paper).
const Sections = 4

// SectionSize is the size of each hash-key section.
const SectionSize = PageSize / Sections

// LinesPerSection is the number of 64B lines in a 1KB section.
const LinesPerSection = SectionSize / LineSize

// KeyOffsets selects which line inside each 1KB section contributes its
// minikey to the page hash key. The paper exposes these via the
// update_ECC_offset API call; they are "rarely changed" and set after
// profiling. Offsets are line indices within the section, in [0,16).
type KeyOffsets [Sections]int

// DefaultKeyOffsets spreads the sampled lines across each section. KSM's
// jhash covers the *first* 1KB of the page; sampling one line per 1KB
// section gives the ECC key whole-page coverage with only 256B of traffic.
// Section 0 samples line 4 rather than line 0: profiling (the paper's
// update_ECC_offset flow) shows leading lines are dominated by zeroed
// headers and long shared prefixes, so they contribute no discriminating
// bits, while line 4 sits inside the frequently-written header region and
// catches partial writes.
var DefaultKeyOffsets = KeyOffsets{4, 5, 10, 15}

// Validate reports an error if any offset is outside its section.
func (o KeyOffsets) Validate() error {
	for i, off := range o {
		if off < 0 || off >= LinesPerSection {
			return fmt.Errorf("ecc: key offset[%d]=%d outside [0,%d)", i, off, LinesPerSection)
		}
	}
	return nil
}

// LineIndex reports the page-relative line index sampled for section s.
func (o KeyOffsets) LineIndex(s int) int {
	return s*LinesPerSection + o[s]
}

// PageKey computes the 32-bit ECC-based hash key of a 4KB page by
// concatenating the minikeys of the four sampled lines (section 0 in the
// least-significant byte). This is the software-reference implementation;
// the PageForge hardware assembles the same value incrementally as lines
// flow through the memory controller.
func PageKey(page []byte, offsets KeyOffsets) uint32 {
	if len(page) != PageSize {
		panic(fmt.Sprintf("ecc: PageKey on %d bytes, want %d", len(page), PageSize))
	}
	var key uint32
	for s := 0; s < Sections; s++ {
		li := offsets.LineIndex(s)
		line := page[li*LineSize : (li+1)*LineSize]
		key |= uint32(EncodeLine(line).Minikey()) << (8 * s)
	}
	return key
}

// KeyAssembler builds a page key incrementally from line ECC codes as they
// are observed, the way the PageForge control logic snatches codes from the
// ECC engine (Section 3.3.2). Lines may arrive in any order and more than
// once; only the sampled offsets contribute.
type KeyAssembler struct {
	offsets KeyOffsets
	key     uint32
	have    [Sections]bool
}

// NewKeyAssembler returns an assembler for one candidate page.
func NewKeyAssembler(offsets KeyOffsets) *KeyAssembler {
	return &KeyAssembler{offsets: offsets}
}

// Observe records the ECC code of the page line with index lineIdx (0..63).
// It returns true if the observation completed the key.
func (a *KeyAssembler) Observe(lineIdx int, code LineCode) bool {
	if !a.Wants(lineIdx) {
		return a.Ready()
	}
	s := lineIdx / LinesPerSection
	a.key |= uint32(code.Minikey()) << (8 * s)
	a.have[s] = true
	return a.Ready()
}

// Wants reports whether the line with index lineIdx would complete a
// minikey the key still lacks: the one check a caller needs before it pays
// for the line's code.
func (a *KeyAssembler) Wants(lineIdx int) bool {
	s := lineIdx / LinesPerSection
	return s >= 0 && s < Sections && a.offsets.LineIndex(s) == lineIdx && !a.have[s]
}

// Ready reports whether all four minikeys have been observed.
func (a *KeyAssembler) Ready() bool {
	return a.have[0] && a.have[1] && a.have[2] && a.have[3]
}

// Missing appends to dst the page-relative line indices still needed to
// finish the key and returns the extended slice; the hardware fetches
// exactly these on a Last-Refill forced finish. A dst with room for
// Sections entries makes the call allocation-free.
func (a *KeyAssembler) Missing(dst []int) []int {
	for s := 0; s < Sections; s++ {
		if !a.have[s] {
			dst = append(dst, a.offsets.LineIndex(s))
		}
	}
	return dst
}

// Key reports the assembled key; valid only when Ready.
func (a *KeyAssembler) Key() uint32 { return a.key }

// Reset clears the assembler for a new candidate page.
func (a *KeyAssembler) Reset() {
	a.key = 0
	a.have = [Sections]bool{}
}
