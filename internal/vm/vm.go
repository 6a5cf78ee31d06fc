// Package vm models the virtualization substrate the paper's evaluation
// runs on: a hypervisor owning host physical memory, per-VM guest-physical
// to host-physical page tables, lazy zero-fill soft faults, madvise
// MERGEABLE hints, and the copy-on-write remapping that same-page merging
// relies on (Figure 1 of the paper).
package vm

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/mem"
)

// GFN is a guest frame number (guest-physical page index within one VM).
// It fits 32 bits because NewVM panics past 2^32 guest pages.
type GFN uint32

// PageID names one guest page globally: the VM and the guest frame, in 8
// bytes. The VM fits an int32 because NewVM panics past 2^31 VMs.
type PageID struct {
	VM  int32
	GFN GFN
}

// PageID names the VM's guest page g.
func (v *VM) PageID(g GFN) PageID { return PageID{int32(v.ID), g} }

// String renders the ID for diagnostics.
func (p PageID) String() string { return fmt.Sprintf("vm%d:gfn%d", p.VM, p.GFN) }

// mapping is one guest page-table entry: 16 bytes, with no pointer for the
// garbage collector to scan.
type mapping struct {
	pfn       uint32 // backing frame, when present
	present   bool
	writeProt bool    // write-protected: guest writes fault (CoW)
	mergeable bool    // inside a madvise(MADV_MERGEABLE) region
	next      pageKey // the backing frame's next mapper; 0 ends the list
}

// pageKey packs a PageID into one word for the reverse map: the VM in the
// high 32 bits and the GFN in the low 32, plus one, so that 0 names no
// page. NewHypervisor and NewVM reject sizes that do not pack.
type pageKey uint64

// Packing limits: a PFN and a GFN each fit 32 bits, and VM IDs stay below
// 2^31 so that no key reaches unlinked.
const (
	maxFrames = 1 << 32
	maxPages  = 1 << 32
	maxVMs    = 1 << 31
)

// unlinked marks a mapping SetState has not yet threaded onto its frame's
// reverse map; no page packs to it.
const unlinked = ^pageKey(0)

func keyOf(id PageID) pageKey { return pageKey(uint64(id.VM)<<32|uint64(id.GFN)) + 1 }

func (k pageKey) id() PageID {
	k--
	return PageID{VM: int32(k >> 32), GFN: GFN(k)}
}

// VM is one virtual machine instance.
type VM struct {
	ID    int
	table []mapping
	hv    *Hypervisor
}

// Pages reports the guest-physical size of the VM in pages.
func (v *VM) Pages() int { return len(v.table) }

// Hypervisor owns physical memory and the VMs, and implements the
// page-merging primitives the dedup engines (KSM, PageForge driver) call.
type Hypervisor struct {
	Phys *mem.Phys
	vms  []*VM

	// heads is the reverse map KSM needs to write-protect all sharers,
	// threaded through the page tables: heads[pfn] is the most recently
	// added guest page mapping the frame (0 when none maps it), and each
	// mapping's next names the frame's next mapper. Sharded scan workers
	// only ever touch frames of their own content shard, so they write
	// disjoint heads and the links of disjoint mappings.
	heads []pageKey

	// Merges counts successful page merges; Unmerges counts CoW breaks of
	// merged frames.
	Merges   uint64
	Unmerges uint64

	// OnWrite, when non-nil, observes every guest write after it has landed
	// (including any CoW break it triggered). Verification tooling uses it
	// to maintain a shadow copy of page contents; it must not mutate
	// simulation state. data is valid only during the call: a seeded write
	// hands over a buffer the hypervisor reuses, so an observer that keeps
	// the bytes copies them.
	OnWrite func(id PageID, off int, data []byte)

	// seedPage holds the bytes WriteSeed generates for OnWrite; nil until
	// a seeded write first finds an observer attached.
	seedPage []byte

	// OnRelease, when non-nil, observes every guest page release (balloon
	// inflation, sandbox teardown) after the mapping is gone. Verification
	// tooling uses it to keep shadow contents coherent: a released page
	// that is later re-touched reads zero-fill, not its old bytes.
	OnRelease func(id PageID)

	// OnEvict, when non-nil, observes a guest page release before the
	// mapping is torn down, while the backing frame is still known — the
	// provenance ledger needs the (id, pfn) pair that OnRelease can no
	// longer see. It must not mutate simulation state.
	OnEvict func(id PageID, pfn mem.PFN)

	// OnCoWBreak, when non-nil, observes every copy-on-write break: the
	// writing mapping left frame old for frame fresh (fresh == old on the
	// sole-mapper path, which just drops the protection in place). It must
	// not mutate simulation state.
	OnCoWBreak func(id PageID, old, fresh mem.PFN)

	// Reclaim, when non-nil, is consulted when a guest-path frame
	// allocation finds the arena exhausted: the platform's pressure layer
	// stalls the faulting vCPU (bounded backoff in simulated ticks) and
	// balloon-reclaims frames from victim VMs. attempt counts the failures
	// of the current allocation, starting at 1; returning false stops the
	// retry loop and lets the typed exhaustion error propagate.
	Reclaim func(attempt int) bool

	// AllocStalls counts guest-path allocation failures that entered the
	// stall-and-retry path (one per failed attempt, not per allocation).
	AllocStalls uint64
}

// NewHypervisor creates a hypervisor with the given physical capacity. It
// panics past 2^32 frames, which a page-table entry cannot name.
func NewHypervisor(physBytes uint64) *Hypervisor {
	if frames := physBytes / mem.PageSize; frames > maxFrames {
		panic(fmt.Sprintf("vm: %d frames exceed the %d a page table can name", frames, uint64(maxFrames)))
	}
	p := mem.New(physBytes)
	return &Hypervisor{
		Phys:  p,
		heads: make([]pageKey, p.TotalFrames()),
	}
}

// NewVM creates a VM with the given guest-physical memory size. Guest pages
// are unbacked until first touch. It panics past 2^32 guest pages or 2^31
// VMs, which the reverse map cannot name.
func (h *Hypervisor) NewVM(memBytes uint64) *VM {
	pages := memBytes / mem.PageSize
	if pages > maxPages || len(h.vms) >= maxVMs {
		panic(fmt.Sprintf("vm: VM %d of %d pages exceeds the reverse map's %d VMs of %d pages",
			len(h.vms), pages, maxVMs, uint64(maxPages)))
	}
	v := &VM{ID: len(h.vms), table: make([]mapping, pages), hv: h}
	h.vms = append(h.vms, v)
	return v
}

// VM returns the VM with the given ID.
func (h *Hypervisor) VM(id int) *VM { return h.vms[id] }

// NumVMs reports the number of VMs.
func (h *Hypervisor) NumVMs() int { return len(h.vms) }

// ErrNotPresent is returned when an operation needs a backed page.
var ErrNotPresent = errors.New("vm: guest page not present")

func (v *VM) entry(g GFN) *mapping {
	if int(g) >= len(v.table) {
		panic(fmt.Sprintf("vm: GFN %d out of range for VM %d (%d pages)", g, v.ID, len(v.table)))
	}
	return &v.table[g]
}

// Madvise marks [start, start+n) mergeable or not, mirroring the
// MADV_MERGEABLE hint a guest's deployment gives KSM.
func (v *VM) Madvise(start GFN, n int, mergeable bool) {
	for i := range n {
		v.entry(start + GFN(i)).mergeable = mergeable
	}
}

// AppendMergeable appends every guest page inside a mergeable region to
// dst, VM by VM in GFN order, and returns the extended slice. It counts the
// pages first, so dst grows at most once.
func (h *Hypervisor) AppendMergeable(dst []PageID) []PageID {
	n := 0
	for _, v := range h.vms {
		for g := range v.table {
			if v.table[g].mergeable {
				n++
			}
		}
	}
	dst = slices.Grow(dst, n)
	for _, v := range h.vms {
		for g := range v.table {
			if v.table[g].mergeable {
				dst = append(dst, v.PageID(GFN(g)))
			}
		}
	}
	return dst
}

// Mergeable reports whether the guest page is in a mergeable region.
func (v *VM) Mergeable(g GFN) bool { return v.entry(g).mergeable }

// Present reports whether the guest page is backed by a frame.
func (v *VM) Present(g GFN) bool { return v.entry(g).present }

// WriteProtected reports whether guest writes to the page would fault.
func (v *VM) WriteProtected(g GFN) bool { return v.entry(g).writeProt }

// Resolve returns the frame backing the guest page.
func (v *VM) Resolve(g GFN) (mem.PFN, bool) {
	e := v.entry(g)
	return mem.PFN(e.pfn), e.present
}

// allocFrame runs one guest-path allocation through the stall-and-retry
// protocol: on exhaustion it hands control to the Reclaim hook (which
// stalls the vCPU and balloon-reclaims frames) and retries until the hook
// gives up, at which point the typed mem.ErrOutOfFrames propagates.
func (h *Hypervisor) allocFrame(alloc func() (mem.PFN, error)) (mem.PFN, error) {
	pfn, err := alloc()
	for attempt := 1; err != nil && h.Reclaim != nil; attempt++ {
		h.AllocStalls++
		if !h.Reclaim(attempt) {
			break
		}
		pfn, err = alloc()
	}
	return pfn, err
}

// fault backs an unbacked page with a zeroed frame (the hypervisor's
// zero-fill soft fault: "picks a page, zeroes it out to avoid information
// leakage, and provides it to the guest OS").
func (v *VM) fault(g GFN) (*mapping, error) {
	e := v.entry(g)
	if e.present {
		return e, nil
	}
	pfn, err := v.hv.allocFrame(v.hv.Phys.Alloc)
	if err != nil {
		return nil, err
	}
	e.pfn = uint32(pfn)
	e.present = true
	e.writeProt = false
	v.hv.rmapAdd(keyOf(v.PageID(g)), e)
	return e, nil
}

// Touch ensures the page is backed (a guest read of an untouched page).
func (v *VM) Touch(g GFN) error {
	_, err := v.fault(g)
	return err
}

// checkRange rejects an access of n bytes at off that does not fit a page.
func checkRange(off, n int) error {
	if off < 0 || n > mem.PageSize-off {
		return fmt.Errorf("vm: access of %d bytes at offset %d overruns the %d-byte page", n, off, mem.PageSize)
	}
	return nil
}

// Read copies page bytes at [off, off+len(dst)) into dst, faulting the page
// in if needed. A range that does not fit the page is an error.
func (v *VM) Read(g GFN, off int, dst []byte) error {
	if err := checkRange(off, len(dst)); err != nil {
		return err
	}
	e, err := v.fault(g)
	if err != nil {
		return err
	}
	v.hv.Phys.ReadAt(mem.PFN(e.pfn), off, dst)
	return nil
}

// Page returns a read-only view of the page contents (faulting it in). The
// view follows mem.Phys.Page's rules: nothing may write through it, and it
// stays valid until the next write to the page.
func (v *VM) Page(g GFN) ([]byte, error) {
	e, err := v.fault(g)
	if err != nil {
		return nil, err
	}
	return v.hv.Phys.Page(mem.PFN(e.pfn)), nil
}

// Write stores src at [off, off+len(src)), handling the soft fault and any
// CoW break. It reports whether a CoW break occurred. A range that does not
// fit the page is an error, returned before the page is faulted in.
func (v *VM) Write(g GFN, off int, src []byte) (cowBroke bool, err error) {
	if err := checkRange(off, len(src)); err != nil {
		return false, err
	}
	e, cowBroke, err := v.writable(g)
	if err != nil {
		return false, err
	}
	v.hv.Phys.WriteAt(mem.PFN(e.pfn), off, src)
	if v.hv.OnWrite != nil {
		v.hv.OnWrite(v.PageID(g), off, src)
	}
	return cowBroke, nil
}

// WriteSeed writes the whole page mem.FillPage generates from seed, as
// Write of those bytes would, without generating them: the page's frame
// points at the seed (mem.Phys.SeedPage), so no store slot holds its
// bytes. It runs the same soft fault and CoW break as Write and reports
// whether a CoW break occurred. Only an attached OnWrite observer makes it
// generate the page, into a buffer the hypervisor owns.
func (v *VM) WriteSeed(g GFN, seed uint64) (cowBroke bool, err error) {
	e, cowBroke, err := v.writable(g)
	if err != nil {
		return false, err
	}
	v.hv.Phys.SeedPage(mem.PFN(e.pfn), seed)
	if h := v.hv; h.OnWrite != nil {
		if h.seedPage == nil {
			h.seedPage = make([]byte, mem.PageSize)
		}
		mem.FillPage(h.seedPage, seed, 0)
		h.OnWrite(v.PageID(g), 0, h.seedPage)
	}
	return cowBroke, nil
}

// writable is the prologue every guest write shares: it faults the page in
// (stalling and reclaiming when the arena is exhausted) and breaks
// copy-on-write when the page is write-protected, reporting whether it did.
func (v *VM) writable(g GFN) (e *mapping, cowBroke bool, err error) {
	if e, err = v.fault(g); err != nil {
		return nil, false, err
	}
	if e.writeProt {
		if err := v.breakCoW(g, e); err != nil {
			return nil, false, err
		}
		cowBroke = true
	}
	return e, cowBroke, nil
}

// breakCoW gives the writing guest a private copy of a protected page.
func (v *VM) breakCoW(g GFN, e *mapping) error {
	old := mem.PFN(e.pfn)
	if v.hv.Phys.Get(old).Refs() == 1 {
		// Sole mapper: just drop the protection (Linux reuse_ksm_page path).
		e.writeProt = false
		v.hv.Phys.SetCoW(old, false)
		v.hv.Unmerges++
		if v.hv.OnCoWBreak != nil {
			v.hv.OnCoWBreak(v.PageID(g), old, old)
		}
		return nil
	}
	// The fresh frame is fully overwritten by the copy, so skip the
	// zero-fill a plain Alloc would pay (and would miscount as demand-zero).
	fresh, err := v.hv.allocFrame(v.hv.Phys.AllocForCopy)
	if err != nil {
		return err
	}
	v.hv.Phys.CopyPage(fresh, old)
	k := keyOf(v.PageID(g))
	v.hv.rmapRemove(old, k)
	v.hv.Phys.DecRef(old)
	e.pfn = uint32(fresh)
	e.writeProt = false
	v.hv.rmapAdd(k, e)
	v.hv.Unmerges++
	if v.hv.OnCoWBreak != nil {
		v.hv.OnCoWBreak(v.PageID(g), old, fresh)
	}
	return nil
}

// Release unmaps the guest page, dropping its frame reference.
func (v *VM) Release(g GFN) {
	e := v.entry(g)
	if !e.present {
		return
	}
	pfn := mem.PFN(e.pfn)
	if v.hv.OnEvict != nil {
		v.hv.OnEvict(v.PageID(g), pfn)
	}
	v.hv.rmapRemove(pfn, keyOf(v.PageID(g)))
	v.hv.Phys.DecRef(pfn)
	*e = mapping{mergeable: e.mergeable}
	if v.hv.OnRelease != nil {
		v.hv.OnRelease(v.PageID(g))
	}
}

// link returns the page-table entry of the page k names.
func (h *Hypervisor) link(k pageKey) *mapping {
	id := k.id()
	return &h.vms[id.VM].table[id.GFN]
}

// rmapAdd puts the page k names, whose entry e already holds its frame, at
// the head of that frame's mapper list.
func (h *Hypervisor) rmapAdd(k pageKey, e *mapping) {
	e.next = h.heads[e.pfn]
	h.heads[e.pfn] = k
}

// rmapRemove unlinks the page k names from the frame's mapper list.
func (h *Hypervisor) rmapRemove(pfn mem.PFN, k pageKey) {
	for at := &h.heads[pfn]; *at != 0; {
		e := h.link(*at)
		if *at == k {
			*at = e.next
			return
		}
		at = &e.next
	}
	panic(fmt.Sprintf("vm: rmap entry %v for frame %d missing", k.id(), pfn))
}

// Mappers returns the guest pages currently mapping the frame, most
// recently mapped first, or nil when none does.
func (h *Hypervisor) Mappers(pfn mem.PFN) []PageID {
	var out []PageID
	for k := h.heads[pfn]; k != 0; k = h.link(k).next {
		out = append(out, k.id())
	}
	return out
}

// MapperCount reports how many guest pages currently map the frame,
// without copying the reverse map like Mappers does.
func (h *Hypervisor) MapperCount(pfn mem.PFN) int {
	n := 0
	for k := h.heads[pfn]; k != 0; k = h.link(k).next {
		n++
	}
	return n
}

// Mapped reports whether any guest page maps the frame. Unlike MapperCount
// it costs the same however many pages share the frame.
func (h *Hypervisor) Mapped(pfn mem.PFN) bool { return h.heads[pfn] != 0 }

// Shared reports whether more than one guest page maps the frame. Unlike
// MapperCount it costs the same however many pages share the frame.
func (h *Hypervisor) Shared(pfn mem.PFN) bool {
	k := h.heads[pfn]
	return k != 0 && h.link(k).next != 0
}

// setWriteProt sets the write protection of every mapping of the frame.
func (h *Hypervisor) setWriteProt(pfn mem.PFN, on bool) {
	for k := h.heads[pfn]; k != 0; {
		e := h.link(k)
		e.writeProt = on
		k = e.next
	}
}

// Resolve resolves a global page ID to its backing frame.
func (h *Hypervisor) Resolve(id PageID) (mem.PFN, bool) {
	return h.vms[id.VM].Resolve(id.GFN)
}

// WriteProtect write-protects every mapping of the frame and marks it CoW.
// Same-page merging does this before the final "racing writes" comparison.
func (h *Hypervisor) WriteProtect(pfn mem.PFN) {
	h.setWriteProt(pfn, true)
	h.Phys.SetCoW(pfn, true)
}

// Unprotect removes write protection from every mapping of the frame and
// clears its CoW mark — the abort path when a pre-merge verification finds
// the candidate was raced by a guest write.
func (h *Hypervisor) Unprotect(pfn mem.PFN) {
	h.setWriteProt(pfn, false)
	h.Phys.SetCoW(pfn, false)
}

// ErrContentChanged is returned by Merge when the final write-protected
// comparison finds the pages no longer identical.
var ErrContentChanged = errors.New("vm: page contents diverged before merge")

// Merge folds the candidate guest page into the frame dst, following KSM's
// safety protocol: write-protect both frames, re-compare exhaustively, and
// only then remap the candidate's mapping to dst and free its old frame.
// It returns the number of bytes compared by the final check.
func (h *Hypervisor) Merge(candidate PageID, dst mem.PFN) (int, error) {
	e := h.vms[candidate.VM].entry(candidate.GFN)
	if !e.present {
		return 0, ErrNotPresent
	}
	src := mem.PFN(e.pfn)
	if src == dst {
		return 0, nil // already merged
	}
	// Write-protect first so a racing guest write faults rather than
	// slipping in between the compare and the remap.
	h.WriteProtect(src)
	h.WriteProtect(dst)
	same, n := h.Phys.SamePage(src, dst)
	if !same {
		// Leave dst protected (it is or will be a stable page); undo the
		// candidate's protection since it is not being merged.
		h.Unprotect(src)
		return n, ErrContentChanged
	}
	k := keyOf(candidate)
	h.rmapRemove(src, k)
	h.Phys.DecRef(src)
	e.pfn = uint32(dst)
	e.writeProt = true
	h.Phys.IncRef(dst)
	h.rmapAdd(k, e)
	// Atomic: sharded scan workers merge concurrently (only ever into
	// frames of their own content shard); the sum is order-independent.
	atomic.AddUint64(&h.Merges, 1)
	return n, nil
}

// SharedFrames reports frames mapped by more than one guest page, and the
// total number of guest pages mapping them; the difference is the paper's
// "memory savings" in pages.
func (h *Hypervisor) SharedFrames() (frames, mappers int) {
	for pfn := range h.heads {
		if h.Shared(mem.PFN(pfn)) {
			frames++
			mappers += h.MapperCount(mem.PFN(pfn))
		}
	}
	return frames, mappers
}
