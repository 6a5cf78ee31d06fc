package mem

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// checkSlots audits the slot store: every free frame, bar those pending in
// a deferred-free window, is on the zero page; every slot's and seed's
// refcount equals the number of frames pointing at it; every slot ever
// handed out is either referenced or on the slot freelist, exactly once,
// and nseeds counts the referenced seeds; every seed entry is either
// referenced or on the seed freelist, exactly once, so the table holds no
// more entries than the machine has frames; every referenced slot has its
// chunk backed; the slot refcounts cover exactly the slots below nextSlot;
// the seed table holds no entry besides entry 0 once no frame points at a
// seed (it is dropped then, or only reserved); and the shared zero page
// still holds only zeroes. It audits the patch arenas the same way
// (checkPatches).
func checkSlots(t *testing.T, p *Phys) {
	t.Helper()
	if FirstNonZero(zeroPage[:]) >= 0 {
		t.Fatal("the shared zero page was written")
	}
	refs := make([]int32, p.nextSlot)
	seedRefs := make([]int32, len(p.seeds))
	for pfn, f := range p.frames {
		if (f.slot < 0 && int(-f.slot) >= len(p.seeds)) || f.slot >= p.nextSlot {
			t.Fatalf("frame %d points at slot %d, outside (-%d, %d)", pfn, f.slot, len(p.seeds), p.nextSlot)
		}
		if f.Refs() == 0 && f.slot != zeroSlot && !slices.Contains(p.pending, PFN(pfn)) {
			t.Fatalf("free frame %d still holds slot %d", pfn, f.slot)
		}
		if f.slot < 0 {
			seedRefs[-f.slot]++
		} else {
			refs[f.slot]++
		}
	}
	onFree := make([]bool, p.nextSlot)
	for _, s := range p.freeSlots {
		if s <= zeroSlot || s >= p.nextSlot || onFree[s] {
			t.Fatalf("slot freelist holds %d twice or out of range", s)
		}
		onFree[s] = true
	}
	for s := int32(1); s < p.nextSlot; s++ {
		if p.slotRefs[s] != refs[s] {
			t.Fatalf("slot %d: refcount %d, but %d frames point at it", s, p.slotRefs[s], refs[s])
		}
		if (refs[s] == 0) != onFree[s] {
			t.Fatalf("slot %d: %d frames point at it, on freelist %v (leaked or double-owned)", s, refs[s], onFree[s])
		}
		if p.chunks[(s-1)/chunkSlots] == nil {
			t.Fatalf("slot %d was handed out from an unbacked chunk", s)
		}
	}
	if len(p.slotRefs) != int(p.nextSlot) {
		t.Fatalf("%d slot refcounts for the %d slots below nextSlot", len(p.slotRefs), p.nextSlot)
	}
	if len(p.seeds) != len(p.seedRefs) || (p.nseeds > 0) != (len(p.seeds) > 1) || (p.seeds == nil && p.freeSeeds != nil) {
		t.Fatalf("seed table of %d seeds, %d refcounts, %d free, with %d seeds live",
			len(p.seeds), len(p.seedRefs), len(p.freeSeeds), p.nseeds)
	}
	seedFree := make([]bool, len(p.seeds))
	for _, k := range p.freeSeeds {
		if k <= 0 || int(k) >= len(p.seeds) || seedFree[k] {
			t.Fatalf("seed freelist holds %d twice or out of range", k)
		}
		seedFree[k] = true
	}
	live := 0
	for k := 1; k < len(p.seeds); k++ {
		if p.seedRefs[k] != seedRefs[k] {
			t.Fatalf("seed %d: refcount %d, but %d frames point at it", k, p.seedRefs[k], seedRefs[k])
		}
		if (seedRefs[k] == 0) != seedFree[k] {
			t.Fatalf("seed %d: %d frames point at it, on freelist %v (leaked or double-owned)", k, seedRefs[k], seedFree[k])
		}
		if seedRefs[k] > 0 {
			live++
		}
	}
	if live != p.nseeds {
		t.Fatalf("%d seeds referenced, but nseeds is %d", live, p.nseeds)
	}
	if p.seeds != nil && (len(p.seeds) != 1+p.nseeds+len(p.freeSeeds) || len(p.seeds) > len(p.frames)+1) {
		t.Fatalf("seed table of %d entries for %d live and %d free seeds on %d frames",
			len(p.seeds), p.nseeds, len(p.freeSeeds), len(p.frames))
	}
	checkPatches(t, p)
}

// checkPatches audits the patch arenas: they exist only beside a seed
// table, whose entries the patches parallel; a plain seed, a free entry and
// entry 0 hold no block; no patch holds more than patchLines lines; every
// patch's block lies in the arena of its line count, and every block an
// arena handed out is held by exactly one patched entry, which some frame
// points at, or is on that arena's freelist, exactly once; and each arena
// backs exactly the chunks its blocks handed out need, each chunk
// patchChunkBlocks blocks of its line count.
func checkPatches(t *testing.T, p *Phys) {
	t.Helper()
	if p.seeds == nil && (p.patches != nil || !reflect.DeepEqual(p.arenas, [patchLines]patchArena{})) {
		t.Fatalf("no seed table, but %d patches and a patch arena", len(p.patches))
	}
	if p.patches != nil && len(p.patches) != len(p.seeds) {
		t.Fatalf("%d patches for %d seed entries", len(p.patches), len(p.seeds))
	}
	var holder [patchLines][]int
	for n := range holder {
		a := &p.arenas[n]
		if want := (int(a.next) + patchChunkBlocks - 1) / patchChunkBlocks; len(a.chunks) != want {
			t.Fatalf("%d-line arena of %d chunks for %d blocks handed out, want %d", n+1, len(a.chunks), a.next, want)
		}
		for _, c := range a.chunks {
			if len(c) != patchChunkBlocks*(n+1)*LineSize {
				t.Fatalf("%d-line arena chunk of %d bytes", n+1, len(c))
			}
		}
		holder[n] = make([]int, a.next+1)
	}
	for k, q := range p.patches {
		n := q.lines()
		switch {
		case q.mask == 0 && q.block != 0:
			t.Fatalf("plain seed %d holds block %d", k, q.block)
		case q.mask == 0:
			continue
		case k == 0 || p.seedRefs[k] == 0:
			t.Fatalf("seed %d, which no frame points at, holds block %d", k, q.block)
		case n > patchLines:
			t.Fatalf("seed %d patches %d lines, more than a patch holds", k, n)
		case q.block < 1 || q.block > p.arenas[n-1].next:
			t.Fatalf("seed %d holds %d-line block %d, outside [1, %d]", k, n, q.block, p.arenas[n-1].next)
		case holder[n-1][q.block] != 0:
			t.Fatalf("%d-line block %d held by seeds %d and %d", n, q.block, holder[n-1][q.block], k)
		}
		holder[n-1][q.block] = k
	}
	for n := range holder {
		a := &p.arenas[n]
		onFree := make([]bool, a.next+1)
		for _, b := range a.free {
			if b < 1 || b > a.next || onFree[b] {
				t.Fatalf("%d-line block freelist holds %d twice or out of range", n+1, b)
			}
			if holder[n][b] != 0 {
				t.Fatalf("free %d-line block %d is held by seed %d", n+1, b, holder[n][b])
			}
			onFree[b] = true
		}
		for b := int32(1); b <= a.next; b++ {
			if holder[n][b] == 0 && !onFree[b] {
				t.Fatalf("%d-line block %d is neither held nor free (leaked)", n+1, b)
			}
		}
	}
}

// checkRestored audits the store SetState rebuilt from st: it holds one
// live slot per distinct content, every frame holding content k points at
// content k's slot, and that slot's refcount is the number of such frames.
func checkRestored(t *testing.T, p *Phys, st PhysState) {
	t.Helper()
	checkSlots(t, p)
	pages := len(st.Pages) / PageSize
	if live := int(p.nextSlot-1) - len(p.freeSlots); live != pages {
		t.Fatalf("%d live slots after restore, want one per distinct content (%d)", live, pages)
	}
	slotOf := make([]int32, pages+1)
	holders := make([]int32, pages+1)
	for pfn, k := range st.PageIndex {
		s := p.frames[pfn].slot
		if k == 0 {
			if s != zeroSlot {
				t.Fatalf("frame %d reads as zero but points at slot %d", pfn, s)
			}
			continue
		}
		if slotOf[k] == zeroSlot {
			slotOf[k] = s
		}
		if s != slotOf[k] || !bytes.Equal(p.view(s), st.page(k)) {
			t.Fatalf("frame %d holds content %d but points at slot %d (content's slot %d)", pfn, k, s, slotOf[k])
		}
		holders[k]++
	}
	for k := 1; k <= pages; k++ {
		if got := p.slotRefs[slotOf[k]]; got != holders[k] {
			t.Fatalf("content %d: slot %d has refcount %d, %d frames hold it", k, slotOf[k], got, holders[k])
		}
	}
}

// flatPhys is the reference model FuzzPhysOps holds the slot store to: the
// same frame, free-frame and counter semantics over one flat arena in which
// every frame owns a fixed PageSize window and every copy copies bytes, and
// a sorted free list in place of the bitmap. A frame's bytes are cleared
// when it is freed, or when a deferred-free window that freed it closes.
type flatPhys struct {
	arena     []byte
	frames    []FrameState
	free      []PFN // ascending; Alloc takes free[0]
	pending   []PFN // freed inside the open deferred-free window
	deferred  bool
	allocated int
	peak      int

	allocs, allocFails, frees, zeroFills uint64
}

func newFlat(n int) *flatPhys {
	r := &flatPhys{arena: make([]byte, n*PageSize), frames: make([]FrameState, n)}
	for i := range n {
		r.free = append(r.free, PFN(i))
	}
	return r
}

func (r *flatPhys) bytes(pfn PFN) []byte { return r.arena[int(pfn)*PageSize : int(pfn+1)*PageSize] }

func (r *flatPhys) take() (PFN, error) {
	if len(r.free) == 0 {
		r.allocFails++
		return 0, ErrOutOfFrames
	}
	pfn := r.free[0]
	r.free = r.free[1:]
	r.frames[pfn].Refs, r.frames[pfn].CoW = 1, false
	r.allocated++
	r.peak = max(r.peak, r.allocated)
	r.allocs++
	return pfn, nil
}

func (r *flatPhys) alloc() (PFN, error) {
	pfn, err := r.take()
	if err == nil && r.frames[pfn].Dirty {
		clear(r.bytes(pfn))
		r.frames[pfn].Dirty = false
		r.zeroFills++
	}
	return pfn, err
}

func (r *flatPhys) allocForCopy() (PFN, error) {
	pfn, err := r.take()
	if err == nil {
		r.frames[pfn].Dirty = true
	}
	return pfn, err
}

func (r *flatPhys) decRef(pfn PFN) {
	f := &r.frames[pfn]
	if f.Refs--; f.Refs != 0 {
		return
	}
	f.CoW, f.Dirty = false, true
	r.allocated--
	r.frees++
	if r.deferred {
		r.pending = append(r.pending, pfn)
		return
	}
	r.release(pfn)
}

// release clears a freed frame and inserts it into the sorted free list.
func (r *flatPhys) release(pfn PFN) {
	clear(r.bytes(pfn))
	i, _ := slices.BinarySearch(r.free, pfn)
	r.free = slices.Insert(r.free, i, pfn)
}

func (r *flatPhys) endDeferred() {
	r.deferred = false
	for _, pfn := range r.pending {
		r.release(pfn)
	}
	r.pending = r.pending[:0]
}

// freeDescending is the free list in the order PhysState records it.
func (r *flatPhys) freeDescending() []PFN {
	if len(r.free) == 0 {
		return nil
	}
	out := slices.Clone(r.free)
	slices.Reverse(out)
	return out
}

func (r *flatPhys) state() (PhysState, error) {
	if r.deferred || len(r.pending) > 0 {
		return PhysState{}, errors.New("deferred")
	}
	st := PhysState{
		PageIndex: make([]int32, len(r.frames)),
		Frames:    slices.Clone(r.frames),
		Free:      r.freeDescending(),
		Allocated: r.allocated, Peak: r.peak,
		Allocs: r.allocs, AllocFails: r.allocFails, Frees: r.frees, ZeroFills: r.zeroFills,
	}
	// Each distinct nonzero page, numbered by the lowest PFN holding it,
	// found by a linear search over the pages kept so far.
	zero := make([]byte, PageSize)
	for i := range r.frames {
		pg := r.bytes(PFN(i))
		if bytes.Equal(pg, zero) {
			continue
		}
		k := 0
		for j := 0; j < len(st.Pages) && k == 0; j += PageSize {
			if bytes.Equal(st.Pages[j:j+PageSize], pg) {
				k = j/PageSize + 1
			}
		}
		if k == 0 {
			st.Pages = append(st.Pages, pg...)
			k = len(st.Pages) / PageSize
		}
		st.PageIndex[i] = int32(k)
	}
	return st, nil
}

// physProgram decodes a fuzz input into a program of Phys operations and
// runs it on the slot store and on the flat reference side by side.
type physProgram struct {
	t    *testing.T
	data []byte
	p    *Phys
	r    *flatPhys
	nops int   // the operations step chooses among
	ops  []int // the operation of every step taken
	at   []int // the offset in data of the byte that chose it
	size int   // len(data) before the program ran
}

// physOps is the number of operations FuzzPhysOps programs choose among.
const physOps = 15

// next consumes one program byte; an exhausted program reads zeroes.
func (g *physProgram) next() int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b)
}

// frame picks a frame number from the next byte; allocated picks an
// allocated frame, or reports false when none is.
func (g *physProgram) frame() PFN { return PFN(g.next() % len(g.r.frames)) }

func (g *physProgram) allocated() (PFN, bool) {
	start := g.frame()
	for i := range g.r.frames {
		pfn := (start + PFN(i)) % PFN(len(g.r.frames))
		if g.r.frames[pfn].Refs > 0 {
			return pfn, true
		}
	}
	return 0, false
}

// content builds n bytes: zeroes, a byte pattern, or bytes lifted from
// another frame (so distinct slots come to hold equal pages).
func (g *physProgram) content(n int) []byte {
	buf := make([]byte, n)
	if n == 0 {
		return buf
	}
	switch g.next() % 4 {
	case 0:
	case 1:
		seed := g.next()
		for i := range buf {
			buf[i] = byte(seed + i*(seed|1)>>3)
		}
	case 2:
		copy(buf, g.r.bytes(g.frame())[PageSize-n:])
	default:
		buf[g.next()%n] = byte(g.next() | 1)
	}
	return buf
}

func (g *physProgram) step() {
	t, p, r := g.t, g.p, g.r
	g.at = append(g.at, g.size-len(g.data))
	op := g.next() % g.nops
	g.ops = append(g.ops, op)
	switch op {
	case 0, 1: // Alloc
		a, errA := p.Alloc()
		b, errB := r.alloc()
		if a != b || errA != errB {
			t.Fatalf("Alloc: %d/%v, reference %d/%v", a, errA, b, errB)
		}
	case 2: // AllocForCopy, then CopyPage from an allocated frame
		src, ok := g.allocated()
		a, errA := p.AllocForCopy()
		b, errB := r.allocForCopy()
		if a != b || (errA == nil) != (errB == nil) {
			t.Fatalf("AllocForCopy: %d/%v, reference %d/%v", a, errA, b, errB)
		}
		if errA == nil && ok {
			p.CopyPage(a, src)
			copy(r.bytes(a), r.bytes(src))
		}
	case 3: // CopyPage between allocated frames
		dst, ok1 := g.allocated()
		src, ok2 := g.allocated()
		if ok1 && ok2 {
			p.CopyPage(dst, src)
			copy(r.bytes(dst), r.bytes(src))
		}
	case 4, 5: // WriteAt
		pfn, ok := g.allocated()
		if !ok {
			return
		}
		var off, n int
		switch g.next() % 3 {
		case 0:
			off, n = 0, PageSize
		case 1:
			off = g.next() * 16
			n = min(g.next()%65, PageSize-off)
		default:
			off = (g.next()<<8 | g.next()) % PageSize
			n = g.next() % (PageSize - off + 1)
		}
		src := g.content(n)
		p.WriteAt(pfn, off, src)
		copy(r.bytes(pfn)[off:], src)
	case 6: // IncRef
		if pfn, ok := g.allocated(); ok {
			p.IncRef(pfn)
			r.frames[pfn].Refs++
		}
	case 7, 8: // DecRef
		if pfn, ok := g.allocated(); ok {
			p.DecRef(pfn)
			r.decRef(pfn)
		}
	case 9: // open or close a deferred-free window
		if r.deferred {
			p.EndDeferredFrees()
			r.endDeferred()
		} else {
			p.BeginDeferredFrees()
			r.deferred = true
		}
	case 10: // SetCoW
		if pfn, ok := g.allocated(); ok {
			cow := g.next()%2 == 0
			p.SetCoW(pfn, cow)
			r.frames[pfn].CoW = cow
		}
	case 11: // State, then SetState into this machine or a fresh one
		st, err := p.State()
		want, werr := r.state()
		if (err == nil) != (werr == nil) {
			t.Fatalf("State error %v, reference %v", err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatal("State differs from the reference")
		}
		target := p
		if g.next()%2 == 0 {
			target = New(uint64(len(r.frames)) * PageSize)
		}
		if err := target.SetState(st); err != nil {
			t.Fatal(err)
		}
		checkRestored(t, target, st)
		if back, err := target.State(); err != nil || !reflect.DeepEqual(back, st) {
			t.Fatalf("State → SetState → State is not identical (error %v)", err)
		}
		g.p = target
	case 12: // ReserveSeeds, then SeedPage over distinct allocated frames, inside or outside a deferred-free window
		var pfns []PFN
		var seeds []uint64
		for k := g.next() % 5; k > 0; k-- {
			if pfn, ok := g.allocated(); ok && !slices.Contains(pfns, pfn) {
				pfns = append(pfns, pfn)
				// A few seed values recur, so distinct seeds of equal
				// pages meet in compares.
				seeds = append(seeds, uint64(g.next()%32))
			}
		}
		seedPages(p, pfns, seeds)
		for i, pfn := range pfns {
			FillPage(r.bytes(pfn), seeds[i], 0)
		}
	case 14: // SeedPage one allocated frame at a time, as a seeded guest write does
		for k := 1 + g.next()%4; k > 0; k-- {
			if pfn, ok := g.allocated(); ok {
				seed := uint64(g.next() % 32)
				p.SeedPage(pfn, seed)
				FillPage(r.bytes(pfn), seed, 0)
			}
		}
	case 13: // read two frames without materializing them, then view one
		a, ok1 := g.allocated()
		b, ok2 := g.allocated()
		if !ok1 || !ok2 {
			return
		}
		g.comparePair(a, b)
		g.readLines(a, g.next()%LinesPerPage)
		off := g.next() * 16 % PageSize
		got := make([]byte, g.next()%(PageSize-off+1))
		p.ReadAt(b, off, got)
		if !bytes.Equal(got, r.bytes(b)[off:off+len(got)]) {
			t.Fatalf("frame %d: ReadAt(%d, %d bytes) differs from the reference", b, off, len(got))
		}
		if !bytes.Equal(p.Page(a), r.bytes(a)) {
			t.Fatalf("frame %d: Page differs from the reference", a)
		}
	}
}

// readLines checks ReadLine of frame pfn at line i and at every line after
// it against the reference, holding each line of the frame beside the
// line of another frame the way a lockstep compare does.
func (g *physProgram) readLines(pfn PFN, i int) {
	other, _ := g.allocated()
	for ; i < LinesPerPage; i++ {
		line := g.p.ReadLine(pfn, i)
		held := g.p.ReadLine(other, i)
		if !bytes.Equal(line, g.r.bytes(pfn)[i*LineSize:(i+1)*LineSize]) ||
			!bytes.Equal(held, g.r.bytes(other)[i*LineSize:(i+1)*LineSize]) {
			g.t.Fatalf("frames %d,%d: ReadLine(%d) differs from the reference", pfn, other, i)
		}
	}
}

// compare checks every observable of the two machines against each other.
// Its reads do not materialize seeded frames (it takes no Page view of
// one), so seeded frames live on until an operation writes, views or
// drops them.
func (g *physProgram) compare() {
	t, p, r := g.t, g.p, g.r
	checkSlots(t, p)
	if p.Allocs != r.allocs || p.AllocFails != r.allocFails || p.Frees != r.frees || p.ZeroFills != r.zeroFills ||
		p.AllocatedFrames() != r.allocated || p.PeakFrames() != r.peak || p.FreeFrames() != len(r.free) {
		t.Fatalf("counters: allocs %d/%d fails %d/%d frees %d/%d zerofills %d/%d allocated %d/%d peak %d/%d free %d/%d",
			p.Allocs, r.allocs, p.AllocFails, r.allocFails, p.Frees, r.frees, p.ZeroFills, r.zeroFills,
			p.AllocatedFrames(), r.allocated, p.PeakFrames(), r.peak, p.FreeFrames(), len(r.free))
	}
	if got, want := p.freeList(), r.freeDescending(); !slices.Equal(got, want) {
		t.Fatalf("free frames %v, reference %v", got, want)
	}
	var live []PFN
	pg := make([]byte, PageSize)
	for i, f := range r.frames {
		pfn := PFN(i)
		if p.Allocated(pfn) != (f.Refs > 0) {
			t.Fatalf("frame %d: allocated %v, reference refs %d", pfn, p.Allocated(pfn), f.Refs)
		}
		if f.Refs == 0 {
			continue
		}
		got := p.Get(pfn)
		if got.Refs() != f.Refs || got.CoW() != f.CoW || p.frames[pfn].dirty() != f.Dirty {
			t.Fatalf("frame %d: metadata differs from the reference", pfn)
		}
		live = append(live, pfn)
		want := r.bytes(pfn)
		p.ReadAt(pfn, 0, pg)
		if !bytes.Equal(pg, want) || p.IsZero(pfn) != (FirstNonZero(want) < 0) ||
			p.ContentKey(pfn) != contentKey(want) ||
			!bytes.Equal(p.ReadLine(pfn, LinesPerPage-1), want[PageSize-LineSize:]) {
			t.Fatalf("frame %d (slot %d): bytes differ from the reference", pfn, p.frames[pfn].slot)
		}
	}
	// A handful of pairs per step keeps the byte-wise reference cheap.
	for i := 0; i < min(len(live), 6); i++ {
		g.comparePair(live[i], live[(i*7+1)%len(live)])
	}
}

// comparePair checks SamePage and ComparePage on two frames against the
// byte-wise reference.
func (g *physProgram) comparePair(a, b PFN) {
	p, r := g.p, g.r
	same, n := p.SamePage(a, b)
	c, m := p.ComparePage(a, b)
	// Equal pages skip the byte loops, which would walk all 4 KiB.
	wsame, wn, wc, wm := true, PageSize, 0, PageSize
	if !bytes.Equal(r.bytes(a), r.bytes(b)) {
		wsame, wn = samePagesByte(r.bytes(a), r.bytes(b))
		wc, wm = comparePagesByte(r.bytes(a), r.bytes(b))
	}
	if same != wsame || n != wn || c != wc || m != wm {
		g.t.Fatalf("frames %d,%d: SamePage (%v,%d) ComparePage (%d,%d), reference (%v,%d) (%d,%d)",
			a, b, same, n, c, m, wsame, wn, wc, wm)
	}
}

// runPhysProgram runs the program data encodes (its first byte picks the
// frame count, up to two chunks' worth plus four) and checks the two
// machines after every step and their State images at the end.
func runPhysProgram(t *testing.T, data []byte) { runPhysOps(t, data, physOps) }

// runPhysOps runs data as runPhysProgram does, with step choosing among
// nops operations, and returns the operation of every step and the offset
// in data of the byte that chose it.
func runPhysOps(t *testing.T, data []byte, nops int) (ops, at []int) {
	n := 1 + int(data[0])%(2*chunkSlots+4)
	g := &physProgram{t: t, data: data, p: New(uint64(n) * PageSize), r: newFlat(n), nops: nops, size: len(data)}
	g.next()
	for len(g.data) > 0 {
		g.step()
		g.compare()
	}
	if g.r.deferred {
		g.p.EndDeferredFrees()
		g.r.endDeferred()
	}
	st, err := g.p.State()
	want, werr := g.r.state()
	if err != nil || werr != nil || !reflect.DeepEqual(st, want) {
		t.Fatalf("final State differs from the reference (errors %v, %v)", err, werr)
	}
	return g.ops, g.at
}

// FuzzPhysOps runs random programs of Alloc, AllocForCopy+CopyPage,
// CopyPage, WriteAt (partial writes over seeded frames patch them),
// ReserveSeeds with SeedPage over several frames, single-frame SeedPage reseeds, reads, IncRef/DecRef (inside
// and outside deferred-free windows), SetCoW and State→SetState on the slot
// store and on the flat reference, which generates seeded pages at once
// and keeps a sorted free list, and requires identical bytes, compare
// verdicts and byte counts, free frames (so Alloc returns the lowest),
// State images, and counters, with a consistent, leak-free slot store,
// seed table and patch arena after every step and one slot per distinct
// content after every restore. The seed corpus runs with the unit tests.
// Programs are capped at 512 bytes so that the fuzzer's executions, and
// its minimisation of new inputs, stay fast; TestPhysOpsLongProgram runs a
// long one.
func FuzzPhysOps(f *testing.F) {
	f.Add([]byte{5, 0, 0, 0, 4, 0, 1, 1, 9, 3, 1, 0, 2, 11, 0})
	f.Add([]byte{130, 0, 0, 0, 0, 0, 0, 4, 1, 0, 1, 3, 4, 2, 1, 2, 3, 0, 1, 2, 7, 1, 6, 0, 7, 0, 11, 1, 0, 1})
	f.Add([]byte{
		9, 0, 0, 0, 0, 0, 0, 4, 0, 0, 1, 77, 3, 1, 0, 2, 0, 9, 8, 1, 8, 0, 9, 1, 0,
		2, 0, 4, 2, 0, 3, 1, 2, 0, 5, 1, 1, 0, 11, 0, 10, 1, 0, 8, 2, 7, 2, 11, 1,
		12, 3, 0, 5, 1, 6, 2, 7, 9, 2,
	})
	f.Add([]byte{
		6, 0, 0, 0, 0, 12, 4, 0, 1, 1, 2, 2, 3, 3, 4, 3, 0, 1, 4, 1, 0, 9, 1, 8, 2,
		4, 3, 0, 0, 1, 2, 2, 0, 0, 13, 0, 2, 9, 11, 1, 13, 1, 3,
	})
	// Reseeds of seeded, shared and stored frames, recycling seed entries
	// inside and outside a deferred-free window.
	f.Add([]byte{
		6, 0, 0, 0, 0, 12, 3, 0, 1, 1, 2, 2, 3, 14, 3, 0, 5, 1, 5, 2, 6, 3, 1, 0,
		9, 14, 2, 1, 7, 3, 7, 7, 0, 14, 1, 2, 9, 9, 4, 1, 0, 1, 2, 14, 0, 0, 3,
		11, 0, 14, 3, 3, 4, 0, 4, 1, 4, 7, 1, 7, 2, 13, 0, 1, 0, 0,
	})
	// Patches on a seeded frame: one dirty line on frame 0; sixteen on frame
	// 1, which shares frame 0's seed value, in four 255-byte writes, then a
	// seventeenth line, which materializes it; a write to frame 2 copied
	// from frame 1; then reads and a Page view of frame 0's patched page.
	f.Add([]byte{
		3, 0, 0, 0, 12, 3, 0, 5, 1, 5, 2, 7,
		4, 0, 1, 3, 10, 3, 1, 2,
		4, 1, 2, 0, 0, 255, 1, 9, 4, 1, 2, 1, 0, 255, 1, 10,
		4, 1, 2, 2, 0, 255, 1, 11, 4, 1, 2, 3, 0, 255, 1, 12,
		4, 1, 1, 128, 4, 3, 0, 7,
		4, 2, 2, 9, 200, 200, 2, 1,
		13, 0, 2, 0, 1, 3, 200,
	})
	// A patched frame shared three ways (CopyPage, AllocForCopy+CopyPage),
	// then each sharer written: two copy the patch to entries of their own,
	// and the last writes the original entry in place; then a view.
	f.Add([]byte{
		5, 0, 0, 0, 12, 1, 0, 3,
		4, 0, 1, 20, 40, 1, 6,
		3, 1, 0, 2, 0,
		4, 1, 1, 21, 64, 3, 5, 9,
		4, 0, 1, 200, 8, 0,
		4, 3, 2, 0, 100, 50, 1, 200,
		13, 0, 1, 3, 2, 0, 64,
	})
	// Patched frames reseeded in place and while shared, zero-written
	// whole, and freed outside and inside a deferred-free window, which
	// recycles their entries and blocks.
	f.Add([]byte{
		4, 0, 0, 0, 0, 12, 4, 0, 1, 1, 1, 2, 2, 3, 9,
		4, 0, 1, 2, 30, 1, 4, 4, 1, 1, 100, 64, 1, 5,
		4, 2, 1, 250, 64, 3, 0, 3, 4, 3, 1, 5, 16, 1, 8,
		14, 0, 0, 7,
		3, 2, 1, 14, 0, 1, 11,
		4, 2, 0, 0,
		7, 3,
		4, 1, 1, 10, 64, 1, 3,
		9, 7, 1, 0, 4, 3, 1, 40, 64, 1, 2, 9,
		11, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		runPhysProgram(t, data)
	})
}

// TestPhysOpsCorpusKeepsItsPrograms replays the FuzzPhysOps corpus files
// committed while step chose among 14 operations. The reseed op changed
// what an op byte of 14 or more selects, so each file holds its original
// input with every op byte b re-encoded as b%14, which selects the same
// operation under either count and leaves the argument bytes as they were.
// The file must be that re-encoding, and must run the original's
// operations step for step.
func TestPhysOpsCorpusKeepsItsPrograms(t *testing.T) {
	for name, orig := range map[string]string{
		"36423617b1f0d844": "088(0002007",
		"e57ba90f62d8e63e": "0A8(800X01000",
	} {
		t.Run(name, func(t *testing.T) {
			wantOps, at := runPhysOps(t, []byte(orig), 14)
			enc := []byte(orig)
			for _, i := range at {
				enc[i] %= 14
			}
			file, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzPhysOps", name))
			if err != nil {
				t.Fatal(err)
			}
			if want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(enc)) + ")\n"; string(file) != want {
				t.Fatalf("corpus file holds %q, want %q", file, want)
			}
			if ops, _ := runPhysOps(t, enc, physOps); !slices.Equal(ops, wantOps) {
				t.Fatalf("the re-encoded input runs operations %v, the original ran %v", ops, wantOps)
			}
		})
	}
}

// TestPhysOpsLongProgram runs FuzzPhysOps's check on a long program over a
// frame count straddling two chunk boundaries: fill every frame with a
// distinct page, then share, unshare, free and recycle frames, with
// checkpoints and a deferred-free window along the way, then reseed frames
// one at a time, so seed entries are freed and handed out again, then
// patch seeded frames, share them, write the sharers, and reseed, zero and
// free patched frames, so patch blocks are copied, freed and handed out
// again.
func TestPhysOpsLongProgram(t *testing.T) {
	long := []byte{2*chunkSlots + 3}
	for i := 0; i < 140; i++ {
		long = append(long, 0, 4, byte(i), 0, 1, byte(i)) // Alloc; whole-page write
	}
	for i := 0; i < 60; i++ {
		long = append(long,
			3, byte(i*3), byte(i*5), // CopyPage
			4, byte(i), 2, 0, byte(i), 1, 1, byte(i*3), // one-byte write at offset i
			7, byte(i*11), // DecRef
			0) // Alloc
		if i%20 == 0 {
			long = append(long, 11, byte(i))
		}
	}
	long = append(long, 9, 7, 1, 7, 2, 7, 3, 9, 0, 0, 2, 5, 12, 4, 0, 17, 1, 18, 2, 19, 3, 20, 13, 0, 1, 11, 0)
	for i := 0; i < 40; i++ {
		long = append(long, 14, 3, byte(i*7), byte(i), byte(i*5), byte(i+1), byte(i*3), byte(i+2), byte(i*11), byte(i+3)) // reseed four frames
		if i%8 == 0 {
			long = append(long, 9, 7, byte(i), 14, 0, byte(i*13), byte(i), 9) // a freed frame and a reseed inside a window
		}
	}
	for i := 0; i < 40; i++ {
		long = append(long,
			4, byte(i*7), 2, byte(i%16), byte(i*13), 255, 1, byte(i), // a 255-byte write: four or five lines
			4, byte(i*7), 1, byte(i*9), 64, 3, byte(i), byte(i), // a 64-byte write to the same frame
			3, byte(i*5), byte(i*7), // share the frame
			4, byte(i*5), 1, byte(i*3), 64, 1, byte(i)) // and write the sharer
		if i%8 == 0 {
			long = append(long, 14, 0, byte(i*7), byte(i), // reseed a frame
				4, byte(i*5), 0, 0, // zero-write one whole
				9, 7, byte(i*7), 9) // and free one inside a window
		}
	}
	long = append(long, 11, 0)
	runPhysProgram(t, long)
}
