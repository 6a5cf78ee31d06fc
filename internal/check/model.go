// Package check implements model-based differential verification of merge
// semantics: a pure reference model of what every guest page should
// contain, an invariant checker that audits the simulated machine at every
// scan interval, and a differential comparison of the merge sets produced
// by the software (KSM) and hardware (PageForge) engines.
//
// The model is deliberately simulation-free: it knows nothing about trees,
// scan tables, CoW protocols, or fault handling. It only tracks "page P was
// written bytes B", which is the ground truth every one of those mechanisms
// must preserve.
package check

import (
	"repro/internal/mem"
	"repro/internal/vm"
)

// Model is the reference content model: a shadow copy of every guest
// page's bytes, maintained purely from the hypervisor's write stream. At
// any instant, page id must read exactly shadow[id] regardless of which
// frame backs it — merging, CoW breaking, quarantining, and fault recovery
// are all required to be content-transparent.
type Model struct {
	shadow map[vm.PageID][]byte
	// dirty marks pages written after the snapshot: their contents diverge
	// across engine modes (scan timing differs), so the differential
	// equivalence check projects them out.
	dirty map[vm.PageID]bool
}

// NewModel returns an empty model; call Attach to snapshot a hypervisor.
func NewModel() *Model {
	return &Model{shadow: map[vm.PageID][]byte{}, dirty: map[vm.PageID]bool{}}
}

// Attach snapshots every present guest page and installs the model as the
// hypervisor's write observer. Call it after the image is built and before
// any scanning; from then on the shadow tracks all guest writes.
func (m *Model) Attach(hv *vm.Hypervisor) {
	for i := 0; i < hv.NumVMs(); i++ {
		v := hv.VM(i)
		for g := vm.GFN(0); int(g) < v.Pages(); g++ {
			pfn, ok := v.Resolve(g)
			if !ok {
				continue
			}
			page := make([]byte, mem.PageSize)
			hv.Phys.ReadAt(pfn, 0, page)
			m.shadow[v.PageID(g)] = page
		}
	}
	hv.OnWrite = m.observe
	hv.OnRelease = m.observeRelease
}

// observe applies one guest write to the shadow. It runs on the
// hypervisor's write path and must not touch simulation state.
func (m *Model) observe(id vm.PageID, off int, data []byte) {
	page := m.shadow[id]
	if page == nil {
		page = make([]byte, mem.PageSize)
		m.shadow[id] = page
	}
	copy(page[off:], data)
	m.dirty[id] = true
}

// observeRelease applies one guest page release (balloon inflation, burst
// teardown) to the shadow: a released page that is later re-touched
// zero-fill faults, so its reference contents are zeros. The page is marked
// dirty — when it is reclaimed is engine-timing dependent, so its contents
// are not comparable across modes.
func (m *Model) observeRelease(id vm.PageID) {
	page := m.shadow[id]
	if page == nil {
		page = make([]byte, mem.PageSize)
		m.shadow[id] = page
	} else {
		for i := range page {
			page[i] = 0
		}
	}
	m.dirty[id] = true
}

// Expected returns the reference contents of the page (nil if the page was
// never present).
func (m *Model) Expected(id vm.PageID) []byte { return m.shadow[id] }

// Clean reports whether the page still holds its image-build contents
// (never written since the snapshot). Clean pages have deterministic,
// mode-independent contents, which makes their merge structure comparable
// across engines.
func (m *Model) Clean(id vm.PageID) bool { return !m.dirty[id] }

// Pages returns the number of tracked pages.
func (m *Model) Pages() int { return len(m.shadow) }
