package tailbench

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Image is the generated memory layout for one deployment: 10 VMs running
// the same application, with page categories tracked for later accounting
// (Figure 7 classifies pages as Unmergeable / Mergeable-Zero /
// Mergeable-NonZero).
type Image struct {
	Profile Profile
	HV      *vm.Hypervisor
	VMs     []*vm.VM
	// Volatile lists pages that the workload rewrites between scan passes.
	Volatile []vm.PageID
	// dup contents shared across VMs; unique contents per page.
	DupPages    []vm.PageID
	ZeroPages   []vm.PageID
	UniquePages []vm.PageID

	rng *sim.RNG

	// burstUsed is the number of burst slots written (not yet released) per
	// VM; burstRNG drives burst contents on a stream independent of the
	// churn RNG, so enabling a storm does not perturb churn determinism.
	burstUsed int
	burstRNG  *sim.RNG

	// Build-time content-pool parameters, retained so VMs spawned mid-run
	// share the fleet's "library" contents: salt is the image-specific
	// content salt, dupDistinct the distinct duplicated-content pool size,
	// and spawned counts SpawnVM calls (it salts each spawn's unique
	// region). All three are derivable from (Profile, numVMs, seed), so a
	// checkpoint only needs the spawn counter.
	salt        uint64
	dupDistinct int
	spawned     int

	// writePage, when non-nil, stands in for vm.VM.WriteSeed in every
	// whole-page write the image issues; tests use it to run a world
	// through FillPage and Write instead.
	writePage func(v *vm.VM, g vm.GFN, seed uint64) error
}

// BuildImage deploys numVMs copies of the application and fills guest
// memory according to the profile's composition:
//
//   - DupFrac of pages carry contents drawn from a pool of distinct
//     "library/kernel/dataset" pages; each distinct content is mapped into
//     ~DupCopies VMs at the same relative position, which is exactly the
//     cross-VM duplication same-page merging exploits.
//   - ZeroFrac of pages are touched but never written (zero pages).
//   - The rest are unique per-VM contents; VolatileFrac of those churn.
//
// All pages are madvised mergeable, as a KVM deployment would.
//
// The build runs in two phases. The mapping phase faults every resident
// page in, in the fixed order dup (slot-major, VM-minor), zero, unique.
// The content phase seeds one frame per distinct content with
// mem.Phys.SeedPages, which never stores a seeded page's bytes unless a
// partial write or a Page view needs them, and points every other dup
// frame at its content's seed. The hypervisor is created here, so no write observer exists to
// miss the contents (DESIGN.md §10).
func BuildImage(p Profile, numVMs int, physFrames int, seed uint64) (*Image, error) {
	img := &Image{Profile: p, HV: vm.NewHypervisor(uint64(physFrames) * mem.PageSize), rng: sim.NewRNG(seed)}

	dupPerVM := int(p.DupFrac * float64(p.PagesPerVM))
	zeroPerVM := int(p.ZeroFrac * float64(p.PagesPerVM))
	uniqPerVM := p.PagesPerVM - dupPerVM - zeroPerVM

	// Distinct duplicated contents: total dup pages / mean copies.
	distinct := int(float64(dupPerVM*numVMs)/p.DupCopies + 0.5)
	if distinct < 1 {
		distinct = 1
	}
	for i := 0; i < numVMs; i++ {
		v := img.HV.NewVM(uint64(p.PagesPerVM+p.BurstPagesPerVM) * mem.PageSize)
		v.Madvise(0, p.PagesPerVM+p.BurstPagesPerVM, true)
		img.VMs = append(img.VMs, v)
	}
	img.burstRNG = sim.NewRNG(seed ^ 0xB0057_F00D)

	// Image-specific salt: two deployments with different seeds must not
	// share any content (their "library" pages are different builds).
	salt := (seed + 1) * 0x9E3779B97F4A7C15
	img.salt, img.dupDistinct = salt, distinct

	// Mapping phase. Duplicated region: gfns [0, dupPerVM).
	img.DupPages = make([]vm.PageID, 0, dupPerVM*numVMs)
	for slot := 0; slot < dupPerVM; slot++ {
		for _, v := range img.VMs {
			if err := v.Touch(vm.GFN(slot)); err != nil {
				return nil, fmt.Errorf("tailbench: dup page: %w", err)
			}
			img.DupPages = append(img.DupPages, v.PageID(vm.GFN(slot)))
		}
	}
	// Zero region: gfns [dupPerVM, dupPerVM+zeroPerVM) — touched only.
	img.ZeroPages = make([]vm.PageID, 0, zeroPerVM*numVMs)
	for z := 0; z < zeroPerVM; z++ {
		g := vm.GFN(dupPerVM + z)
		for _, v := range img.VMs {
			if err := v.Touch(g); err != nil {
				return nil, fmt.Errorf("tailbench: zero page: %w", err)
			}
			img.ZeroPages = append(img.ZeroPages, v.PageID(g))
		}
	}
	// Unique region: remaining gfns, globally unique contents.
	img.UniquePages = make([]vm.PageID, 0, uniqPerVM*numVMs)
	for u := 0; u < uniqPerVM; u++ {
		g := vm.GFN(dupPerVM + zeroPerVM + u)
		for _, v := range img.VMs {
			if err := v.Touch(g); err != nil {
				return nil, fmt.Errorf("tailbench: unique page: %w", err)
			}
			id := v.PageID(g)
			img.UniquePages = append(img.UniquePages, id)
			if float64(u) < p.VolatileFrac*float64(uniqPerVM) {
				img.Volatile = append(img.Volatile, id)
			}
		}
	}

	// Content phase. Dup page k (slot-major, VM-minor) carries content
	// k/copies % distinct: striding contents across slots lands each one in
	// ~DupCopies VMs at the same slot. The first page of each content is
	// seeded and the others share its frame's slot through CopyPage; each
	// unique page k draws the k-th content of the image's unique stream.
	// Zero pages stay on the shared zero page.
	copies := max(1, int(p.DupCopies+0.5))
	fills := make([]mem.PFN, 0, distinct+len(img.UniquePages))
	seeds := make([]uint64, 0, cap(fills))
	leaders := make([]mem.PFN, distinct)
	filled := make([]bool, distinct)
	for k, id := range img.DupPages {
		if c := k / copies % distinct; !filled[c] {
			filled[c] = true
			leaders[c] = img.pfn(id)
			fills = append(fills, leaders[c])
			seeds = append(seeds, uint64(c)*2654435761+salt)
		}
	}
	for k, id := range img.UniquePages {
		next := (salt ^ 0xF00D) + 1 + uint64(k)
		fills = append(fills, img.pfn(id))
		seeds = append(seeds, next*0x9E3779B97F4A7C15+7)
	}
	img.HV.Phys.SeedPages(fills, seeds)
	for k, id := range img.DupPages {
		if pfn, lead := img.pfn(id), leaders[k/copies%distinct]; pfn != lead {
			img.HV.Phys.CopyPage(pfn, lead)
		}
	}
	return img, nil
}

// writeSeed writes the page mem.FillPage generates from seed to guest page
// g of v: a whole-page guest write whose bytes are never stored.
func (img *Image) writeSeed(v *vm.VM, g vm.GFN, seed uint64) error {
	if img.writePage != nil {
		return img.writePage(v, g, seed)
	}
	_, err := v.WriteSeed(g, seed)
	return err
}

// pfn returns the frame backing a mapped image page.
func (img *Image) pfn(id vm.PageID) mem.PFN {
	pfn, _ := img.HV.VM(int(id.VM)).Resolve(id.GFN)
	return pfn
}

// ChurnVolatile models the application's write traffic between
// deduplication passes. Half the volatile pages are fully rewritten; the
// other half receive a partial 256B write whose offset is biased toward
// the start of the page (applications mutate headers and counters early in
// a page far more often than its tail). Partial writes are what create the
// hash-key false positives Figure 8 studies: a write that lands outside
// the first 1KB escapes KSM's jhash, and one that misses all four sampled
// lines escapes the ECC key.
func (img *Image) ChurnVolatile() error {
	part := make([]byte, 256)
	for _, id := range img.Volatile {
		v := img.HV.VM(int(id.VM))
		if img.rng.Bool(0.5) {
			if err := img.writeSeed(v, id.GFN, img.rng.Uint64()); err != nil {
				return err
			}
			continue
		}
		img.rng.FillBytes(part)
		var off int
		if img.rng.Bool(0.7) {
			off = img.rng.Intn(1024 - 256) // header-region write
		} else {
			off = 1024 + img.rng.Intn(mem.PageSize-1024-256)
		}
		if _, err := v.Write(id.GFN, off, part); err != nil {
			return err
		}
	}
	return nil
}

// SpawnVM adds one more VM running the same application image to the live
// deployment — a sandbox spinning up mid-run. Its memory composition
// mirrors BuildImage's: the duplicated region draws from the fleet's
// existing distinct-content pool (offset by the spawn ordinal so copies
// spread across contents), the zero region is written as explicit zeros,
// and the unique region gets fresh contents on a spawn-salted stream. Every
// page is created by a guest write — never Touch — so the hypervisor's
// write-observer seam sees all of it and an attached verifier's shadow
// model learns the new VM's contents (boot-time pages are snapshotted at
// BeginRun instead; a spawned VM has no such moment). The dup and unique
// pages are seeded writes (vm.VM.WriteSeed), so their bytes are never
// stored; the zero pages are Writes of zeroes, which land on the shared
// zero page. All pages are madvised mergeable. The caller owns refreshing
// any dedup engine's scan order afterwards.
func (img *Image) SpawnVM() (*vm.VM, error) {
	p := img.Profile
	dupPerVM := int(p.DupFrac * float64(p.PagesPerVM))
	zeroPerVM := int(p.ZeroFrac * float64(p.PagesPerVM))
	uniqPerVM := p.PagesPerVM - dupPerVM - zeroPerVM

	v := img.HV.NewVM(uint64(p.PagesPerVM+p.BurstPagesPerVM) * mem.PageSize)
	v.Madvise(0, p.PagesPerVM+p.BurstPagesPerVM, true)
	img.spawned++

	for slot := 0; slot < dupPerVM; slot++ {
		contentID := (slot + img.spawned) % max(1, img.dupDistinct)
		if err := img.writeSeed(v, vm.GFN(slot), uint64(contentID)*2654435761+img.salt); err != nil {
			return nil, fmt.Errorf("tailbench: spawn dup page: %w", err)
		}
		img.DupPages = append(img.DupPages, v.PageID(vm.GFN(slot)))
	}
	page := make([]byte, mem.PageSize)
	for z := 0; z < zeroPerVM; z++ {
		g := vm.GFN(dupPerVM + z)
		if _, err := v.Write(g, 0, page); err != nil {
			return nil, fmt.Errorf("tailbench: spawn zero page: %w", err)
		}
		img.ZeroPages = append(img.ZeroPages, v.PageID(g))
	}
	next := img.salt ^ 0xF00D ^ (uint64(img.spawned) * 0x517CC1B727220A95)
	for u := 0; u < uniqPerVM; u++ {
		g := vm.GFN(dupPerVM + zeroPerVM + u)
		next++
		if err := img.writeSeed(v, g, next*0x9E3779B97F4A7C15+7); err != nil {
			return nil, fmt.Errorf("tailbench: spawn unique page: %w", err)
		}
		id := v.PageID(g)
		img.UniquePages = append(img.UniquePages, id)
		if float64(u) < p.VolatileFrac*float64(uniqPerVM) {
			img.Volatile = append(img.Volatile, id)
		}
	}
	img.VMs = append(img.VMs, v)
	return v, nil
}

// KillVM tears down one live VM mid-run — its sandbox exits. Every present
// page (resident image and burst region alike) is released in GFN order,
// the whole guest range is madvised unmergeable so no dedup engine keeps it
// as a scan candidate, and the VM leaves the live list and every tracking
// list. The hypervisor keeps the VM object so IDs of later spawns stay
// stable; the freed frames leave the dedup index's stable/unstable trees at
// the next pass-end prune. The caller owns refreshing any dedup engine's
// scan order afterwards.
func (img *Image) KillVM(id int) error {
	idx := -1
	for i, v := range img.VMs {
		if v.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("tailbench: kill: VM %d is not live", id)
	}
	v := img.VMs[idx]
	for g := vm.GFN(0); int(g) < v.Pages(); g++ {
		if v.Present(g) {
			v.Release(g)
		}
	}
	v.Madvise(0, v.Pages(), false)
	img.VMs = append(img.VMs[:idx], img.VMs[idx+1:]...)
	filter := func(ids []vm.PageID) []vm.PageID {
		out := ids[:0]
		for _, pid := range ids {
			if int(pid.VM) != id {
				out = append(out, pid)
			}
		}
		return out
	}
	img.Volatile = filter(img.Volatile)
	img.DupPages = filter(img.DupPages)
	img.ZeroPages = filter(img.ZeroPages)
	img.UniquePages = filter(img.UniquePages)
	return nil
}

// PhaseShift models an application phase change: the working set moves.
// frac of the unique region (a contiguous window starting at an RNG-drawn
// offset) is rewritten with fresh contents — breaking any merges those
// pages were in — and the volatile set rotates onto the rewritten window,
// so churn follows the new hot set. Contents draw from the image's churn
// RNG stream, which the checkpoint machinery captures, so replayed phase
// shifts are bit-exact.
func (img *Image) PhaseShift(frac float64) error {
	n := int(frac * float64(len(img.UniquePages)))
	if n <= 0 {
		return nil
	}
	if n > len(img.UniquePages) {
		n = len(img.UniquePages)
	}
	start := img.rng.Intn(len(img.UniquePages))
	img.Volatile = img.Volatile[:0]
	for i := 0; i < n; i++ {
		id := img.UniquePages[(start+i)%len(img.UniquePages)]
		if err := img.writeSeed(img.HV.VM(int(id.VM)), id.GFN, img.rng.Uint64()); err != nil {
			return fmt.Errorf("tailbench: phase shift page %v: %w", id, err)
		}
		img.Volatile = append(img.Volatile, id)
	}
	return nil
}

// LiveVMs reports how many VMs are currently live (spawns minus kills).
func (img *Image) LiveVMs() int { return len(img.VMs) }

// BurstWrite models one window of an allocation burst: every VM writes n
// fresh pages into its burst region (above the resident image), faulting in
// frames on the demand path — with the stall/balloon protocol engaged if
// the arena is exhausted. dupFrac of the writes draw contents from a small
// pool shared across VMs (near-identical serverless sandboxes spinning up),
// so the scanner can merge storm pages away while the storm runs; the rest
// are unique. It returns the number of pages written, stopping early only
// when the burst region is full.
func (img *Image) BurstWrite(n int, dupFrac float64) (int, error) {
	if img.Profile.BurstPagesPerVM == 0 || n <= 0 {
		return 0, nil
	}
	if left := img.Profile.BurstPagesPerVM - img.burstUsed; n > left {
		n = left
	}
	salt := img.burstRNG.Uint64()
	written := 0
	for slot := 0; slot < n; slot++ {
		g := vm.GFN(img.Profile.PagesPerVM + img.burstUsed + slot)
		for i, v := range img.VMs {
			// Pool content is slot-indexed, shared by every VM this window.
			seed := salt + uint64(slot)*0x9E3779B97F4A7C15
			if float64(slot) >= dupFrac*float64(n) {
				seed = salt ^ (uint64(i*img.Profile.BurstPagesPerVM+img.burstUsed+slot)*0xA24BAED4963EE407 + 13)
			}
			if err := img.writeSeed(v, g, seed); err != nil {
				return written, fmt.Errorf("tailbench: burst page %v: %w", v.PageID(g), err)
			}
			written++
		}
	}
	img.burstUsed += n
	return written, nil
}

// ReleaseBurst tears the burst region down (the storm's sandboxes exit),
// releasing every written burst page in deterministic VM-then-GFN order,
// and returns the number of guest pages released. The burst region is
// reusable afterwards.
func (img *Image) ReleaseBurst() int {
	released := 0
	for _, v := range img.VMs {
		for slot := 0; slot < img.burstUsed; slot++ {
			g := vm.GFN(img.Profile.PagesPerVM + slot)
			if v.Present(g) {
				v.Release(g)
				released++
			}
		}
	}
	img.burstUsed = 0
	return released
}

// BurstResident reports guest pages currently resident in burst regions.
func (img *Image) BurstResident() int {
	resident := 0
	for _, v := range img.VMs {
		for slot := 0; slot < img.burstUsed; slot++ {
			if v.Present(vm.GFN(img.Profile.PagesPerVM + slot)) {
				resident++
			}
		}
	}
	return resident
}

// Footprint classifies the deployment's pages after deduplication, in the
// taxonomy of Figure 7, and reports page counts.
type Footprint struct {
	TotalGuestPages  int // resident guest pages across all VMs
	FramesAllocated  int // physical frames actually in use
	Unmergeable      int // guest pages mapped 1:1 to a private frame
	MergeableZero    int // guest pages sharing a zero frame
	MergeableNonZero int // guest pages sharing a non-zero frame
	ZeroFrames       int // distinct frames backing zero sharers
	NonZeroShared    int // distinct non-zero shared frames
}

// Savings reports the fractional reduction in allocated frames relative to
// one frame per resident guest page.
func (f Footprint) Savings() float64 {
	if f.TotalGuestPages == 0 {
		return 0
	}
	return 1 - float64(f.FramesAllocated)/float64(f.TotalGuestPages)
}

// MeasureFootprint classifies the current mapping state.
func (img *Image) MeasureFootprint() Footprint {
	var f Footprint
	seenFrame := map[mem.PFN]bool{}
	for _, v := range img.VMs {
		for g := vm.GFN(0); int(g) < v.Pages(); g++ {
			pfn, ok := v.Resolve(g)
			if !ok {
				continue
			}
			f.TotalGuestPages++
			if !img.HV.Shared(pfn) {
				f.Unmergeable++
				continue
			}
			zero := img.HV.Phys.IsZero(pfn)
			if zero {
				f.MergeableZero++
			} else {
				f.MergeableNonZero++
			}
			if !seenFrame[pfn] {
				seenFrame[pfn] = true
				if zero {
					f.ZeroFrames++
				} else {
					f.NonZeroShared++
				}
			}
		}
	}
	f.FramesAllocated = img.HV.Phys.AllocatedFrames()
	return f
}
