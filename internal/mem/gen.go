package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// The page generator. A seeded page's bytes are a pure function of its
// seed: a zero prefix of 64..1088 bytes, a multiple of 8 that the seed
// picks, then the 8-byte little-endian words of an xorshift64* stream the
// seed starts, to the end of the page. Pages with equal seeds are
// byte-identical. The zero prefix reproduces the structure of real system
// pages (zero-initialized headers, sparse data, common ELF/slab prefixes),
// which is what makes content-indexed tree comparisons walk hundreds of
// bytes before diverging (the dominant cost in Table 4) rather than one.
//
// Every byte of a page is addressable without the bytes before it being
// stored: FillPage writes any range, and the store reads seeded frames
// through it (see SeedPage) instead of keeping their bytes.

// pageGen walks one seeded page's words in order. It is a value, so a
// reader that stops mid-page can resume where it stopped.
type pageGen struct {
	x      uint64 // xorshift64* state; the next stream word steps it first
	prefix int    // length of the seed-chosen zero run before the stream
	pos    int    // page offset of the next word; a multiple of 8
}

// newPageGen starts seed's page at offset 0.
func newPageGen(seed uint64) pageGen {
	// Mix the seed so nearby seeds produce unrelated prefixes and tails.
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return pageGen{x: z | 1, prefix: (64 + int(z%1025)) &^ 7}
}

// next returns the word at pos and advances past it.
func (g *pageGen) next() uint64 {
	g.pos += 8
	if g.pos <= g.prefix {
		return 0
	}
	g.x ^= g.x >> 12
	g.x ^= g.x << 25
	g.x ^= g.x >> 27
	return g.x * 0x2545F4914F6CDD1D
}

// skipTo advances to the word holding byte off (rounded down to a word),
// stepping the stream over every word it skips past the prefix.
func (g *pageGen) skipTo(off int) {
	off &^= 7
	if g.pos < g.prefix {
		g.pos = min(g.prefix, off)
	}
	for g.pos < off {
		g.next()
	}
}

// fill writes the next len(dst) bytes of the page, a whole number of
// words, into dst.
func (g *pageGen) fill(dst []byte) {
	i := 0
	if z := g.prefix - g.pos; z > 0 {
		i = min(z, len(dst))
		clear(dst[:i])
		g.pos += i
	}
	for ; i < len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:i+8], g.next())
	}
}

// zeroPrefix reports the exact length of the page's leading zero run:
// the index of its first nonzero byte, or PageSize for an all-zero page.
// It does not move g.
func (g pageGen) zeroPrefix() int {
	g.pos = g.prefix
	for g.pos < PageSize {
		if w := g.next(); w != 0 {
			return g.pos - 8 + bits.TrailingZeros64(w)/8
		}
	}
	return PageSize
}

// FillPage writes bytes [off, off+len(dst)) of seed's page into dst and
// reports the length of the page's zero prefix: the index of its first
// nonzero byte, or PageSize when it has none. The range may start and end
// anywhere inside the page; one that does not fit panics.
func FillPage(dst []byte, seed uint64, off int) int {
	if off < 0 || len(dst) > PageSize-off {
		panic(fmt.Sprintf("mem: fill of %d bytes at offset %d overruns the page", len(dst), off))
	}
	g := newPageGen(seed)
	zp := g.zeroPrefix()
	g.readAt(dst, off)
	return zp
}

// readAt writes bytes [off, off+len(dst)) of the page into dst; g must not
// be past off's word. The ragged words at either end go through a scratch
// word.
func (g *pageGen) readAt(dst []byte, off int) {
	g.skipTo(off)
	var w [8]byte
	if head := off & 7; head != 0 && len(dst) > 0 {
		binary.LittleEndian.PutUint64(w[:], g.next())
		n := copy(dst, w[head:])
		dst = dst[n:]
	}
	body := len(dst) &^ 7
	g.fill(dst[:body])
	if tail := dst[body:]; len(tail) > 0 {
		binary.LittleEndian.PutUint64(w[:], g.next())
		copy(tail, w[:])
	}
}
