package diffengine

import (
	"fmt"

	"repro/internal/esx"
	"repro/internal/mem"
	"repro/internal/vm"
)

// state classifies how a guest page is currently stored.
type state int

const (
	stateRegular    state = iota // its own frame
	stateShared                  // identical-sharing via the hypervisor (CoW)
	statePatched                 // frame released; stored as ref + patch
	stateCompressed              // frame released; stored as a flate blob
)

// record is the per-page Difference Engine bookkeeping.
type record struct {
	st      state
	refPFN  mem.PFN // patch reference frame (statePatched)
	patch   []byte  // encoded patch
	blob    []byte  // compressed page (stateCompressed)
	sigHits int     // similarity-signature matches observed
}

// Config tunes the engine.
type Config struct {
	// MaxPatchBytes: a patch bigger than this is not worth storing
	// (Difference Engine's patch threshold; default half a page).
	MaxPatchBytes int
	// SimilarBlocks is how many 64B block hashes form the similarity
	// signature (HashSimilarityDetector-style); SimilarMatch is how many
	// must coincide to consider two pages similar.
	SimilarBlocks int
	SimilarMatch  int
	// CompressMinRatio: only keep a compressed page if blob size is below
	// this fraction of the page (default 0.75).
	CompressMinRatio float64
	// MinGap coalesces nearby patch edits (see MakePatch).
	MinGap int
}

// DefaultConfig mirrors Difference Engine's published parameters in spirit.
func DefaultConfig() Config {
	return Config{
		MaxPatchBytes:    mem.PageSize / 2,
		SimilarBlocks:    4,
		SimilarMatch:     2,
		CompressMinRatio: 0.75,
		MinGap:           8,
	}
}

// Stats summarizes the engine's effect.
type Stats struct {
	SharedPages     uint64 // identical pages merged (hypervisor CoW)
	PatchedPages    uint64 // pages stored as patches
	CompressedPages uint64 // pages stored compressed
	PatchBytes      uint64 // total encoded patch bytes
	BlobBytes       uint64 // total compressed bytes
	Reconstructions uint64 // faults that rebuilt a patched/compressed page
	PatchRejects    uint64 // similar pair found but patch too large
}

// Manager runs Difference Engine over a hypervisor's mergeable pages.
// Guest accesses to patched/compressed pages must go through Read/Write,
// which reconstructs them (the "fault" path).
type Manager struct {
	HV  *vm.Hypervisor
	Cfg Config

	pages map[vm.PageID]*record
	// identical-sharing index: full-page hash -> shared frame.
	byHash map[uint64]mem.PFN
	// similarity index: block-hash -> reference page candidates.
	bySig map[uint64][]vm.PageID

	Stats Stats
}

// New builds a manager over the hypervisor.
func New(hv *vm.Hypervisor, cfg Config) *Manager {
	return &Manager{
		HV:     hv,
		Cfg:    cfg,
		pages:  make(map[vm.PageID]*record),
		byHash: make(map[uint64]mem.PFN),
		bySig:  make(map[uint64][]vm.PageID),
	}
}

func (m *Manager) rec(id vm.PageID) *record {
	r := m.pages[id]
	if r == nil {
		r = &record{}
		m.pages[id] = r
	}
	return r
}

// signature hashes SimilarBlocks fixed 64B blocks spread across the page.
func (m *Manager) signature(page []byte) []uint64 {
	sig := make([]uint64, m.Cfg.SimilarBlocks)
	stride := len(page) / m.Cfg.SimilarBlocks
	for i := range sig {
		block := page[i*stride : i*stride+64]
		sig[i] = esx.PageHash64(pad(block))
	}
	return sig
}

// pad grows a block to page size for reuse of the page hash (cheap enough
// at this scale and keeps one hash function in the system).
func pad(b []byte) []byte {
	out := make([]byte, mem.PageSize)
	copy(out, b)
	return out
}

// Sweep classifies every mergeable, resident, regular page once:
// identical → share; similar → patch; cold (per coldness predicate) →
// compress; else leave regular. Typical usage runs identical-sharing every
// sweep and passes a predicate selecting not-recently-used pages.
func (m *Manager) Sweep(isCold func(vm.PageID) bool) {
	for i := 0; i < m.HV.NumVMs(); i++ {
		v := m.HV.VM(i)
		for g := vm.GFN(0); int(g) < v.Pages(); g++ {
			if !v.Mergeable(g) {
				continue
			}
			id := vm.PageID{VM: i, GFN: g}
			r := m.rec(id)
			if r.st != stateRegular {
				continue
			}
			pfn, ok := v.Resolve(g)
			if !ok {
				continue
			}
			frame := m.HV.Phys.Get(pfn)
			if frame.CoW() && frame.Refs() > 1 {
				r.st = stateShared
				continue
			}
			m.classify(id, r, pfn, isCold)
		}
	}
}

func (m *Manager) classify(id vm.PageID, r *record, pfn mem.PFN, isCold func(vm.PageID) bool) {
	page := m.HV.Phys.Page(pfn)

	// 1. Identical sharing.
	h := esx.PageHash64(page)
	if shared, ok := m.byHash[h]; ok && m.HV.MapperCount(shared) > 0 && shared != pfn {
		if same, _ := m.HV.Phys.SamePage(pfn, shared); same {
			if _, err := m.HV.Merge(id, shared); err == nil {
				r.st = stateShared
				m.Stats.SharedPages++
				return
			}
		}
	} else {
		m.byHash[h] = pfn
	}

	// 2. Similarity patching against an indexed reference.
	sig := m.signature(page)
	if ref, hits := m.findReference(id, sig); hits >= m.Cfg.SimilarMatch {
		if refPFN, ok := m.HV.Resolve(ref); ok && refPFN != pfn {
			patch := MakePatch(m.HV.Phys.Page(refPFN), page, m.Cfg.MinGap)
			if patch.Size() <= m.Cfg.MaxPatchBytes {
				r.st = statePatched
				r.refPFN = refPFN
				r.patch = patch.Encode()
				m.Stats.PatchedPages++
				m.Stats.PatchBytes += uint64(len(r.patch))
				// Keep the reference frame alive and write-protect it: a
				// guest write to the reference page must CoW away so the
				// patch base stays intact (Difference Engine's rule).
				m.HV.Phys.IncRef(refPFN)
				m.HV.WriteProtect(refPFN)
				m.HV.VM(id.VM).Release(id.GFN)
				return
			}
			m.Stats.PatchRejects++
		}
	}
	for _, s := range sig {
		m.bySig[s] = append(m.bySig[s], id)
	}

	// 3. Compression of cold pages.
	if isCold != nil && isCold(id) {
		blob := Compress(page)
		if float64(len(blob)) < m.Cfg.CompressMinRatio*float64(len(page)) {
			r.st = stateCompressed
			r.blob = blob
			m.Stats.CompressedPages++
			m.Stats.BlobBytes += uint64(len(blob))
			m.HV.VM(id.VM).Release(id.GFN)
		}
	}
}

// findReference returns the indexed page sharing the most signature blocks.
func (m *Manager) findReference(self vm.PageID, sig []uint64) (vm.PageID, int) {
	hits := map[vm.PageID]int{}
	for _, s := range sig {
		for _, cand := range m.bySig[s] {
			if cand != self {
				hits[cand]++
			}
		}
	}
	var best vm.PageID
	bestN := 0
	for id, n := range hits {
		// A reference must still be resident and regular.
		if r := m.pages[id]; r != nil && r.st != stateRegular {
			continue
		}
		if _, ok := m.HV.Resolve(id); !ok {
			continue
		}
		if n > bestN {
			best, bestN = id, n
		}
	}
	return best, bestN
}

// Read returns the page contents, reconstructing patched/compressed pages
// in place (the access fault of the Difference Engine).
func (m *Manager) Read(id vm.PageID) ([]byte, error) {
	if err := m.ensureResident(id); err != nil {
		return nil, err
	}
	return m.HV.VM(id.VM).Page(id.GFN)
}

// Write stores bytes at the offset, reconstructing first if needed.
func (m *Manager) Write(id vm.PageID, off int, data []byte) error {
	if err := m.ensureResident(id); err != nil {
		return err
	}
	_, err := m.HV.VM(id.VM).Write(id.GFN, off, data)
	return err
}

// ensureResident faults a patched or compressed page back into a frame.
func (m *Manager) ensureResident(id vm.PageID) error {
	r := m.rec(id)
	switch r.st {
	case stateRegular, stateShared:
		return nil
	case statePatched:
		patch, err := DecodePatch(r.patch)
		if err != nil {
			return err
		}
		if m.HV.MapperCount(r.refPFN) == 0 && m.HV.Phys.Get(r.refPFN).Refs() == 1 {
			// Only our hold remains; still valid as patch base.
			_ = r
		}
		page := patch.Apply(m.HV.Phys.Page(r.refPFN))
		m.Stats.PatchBytes -= uint64(len(r.patch))
		m.HV.Phys.DecRef(r.refPFN)
		r.patch = nil
		r.st = stateRegular
		m.Stats.Reconstructions++
		if _, err := m.HV.VM(id.VM).Write(id.GFN, 0, page); err != nil {
			return fmt.Errorf("diffengine: refault patched page: %w", err)
		}
		return nil
	case stateCompressed:
		page, err := Decompress(r.blob, mem.PageSize)
		if err != nil {
			return err
		}
		m.Stats.BlobBytes -= uint64(len(r.blob))
		r.blob = nil
		r.st = stateRegular
		m.Stats.Reconstructions++
		if _, err := m.HV.VM(id.VM).Write(id.GFN, 0, page); err != nil {
			return fmt.Errorf("diffengine: refault compressed page: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("diffengine: unknown state %d", r.st)
	}
}

// Savings reports the footprint reduction: physical frames plus patch and
// blob bytes, against one frame per resident-or-stored guest page.
type Savings struct {
	GuestPages     int
	Frames         int
	PatchKB        int
	BlobKB         int
	EffectivePages float64 // frames + (patch+blob bytes)/page size
	Fraction       float64
}

// MeasureSavings accounts the deployment's current footprint.
func (m *Manager) MeasureSavings() Savings {
	s := Savings{}
	for i := 0; i < m.HV.NumVMs(); i++ {
		v := m.HV.VM(i)
		for g := vm.GFN(0); int(g) < v.Pages(); g++ {
			if !v.Mergeable(g) {
				continue
			}
			id := vm.PageID{VM: i, GFN: g}
			if _, ok := v.Resolve(g); ok {
				s.GuestPages++
			} else if r := m.pages[id]; r != nil && (r.st == statePatched || r.st == stateCompressed) {
				s.GuestPages++
			}
		}
	}
	s.Frames = m.HV.Phys.AllocatedFrames()
	patchBytes := m.Stats.PatchBytes
	blobBytes := m.Stats.BlobBytes
	s.PatchKB = int(patchBytes / 1024)
	s.BlobKB = int(blobBytes / 1024)
	s.EffectivePages = float64(s.Frames) + float64(patchBytes+blobBytes)/mem.PageSize
	if s.GuestPages > 0 {
		s.Fraction = 1 - s.EffectivePages/float64(s.GuestPages)
	}
	return s
}
