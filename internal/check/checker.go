package check

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/rbtree"
	"repro/internal/tailbench"
	"repro/internal/vm"
)

// Counters tallies the audit work one checker performed, so experiment
// output can show that the invariants were actually exercised.
type Counters struct {
	Intervals          int // observation points audited
	ContentChecks      int // page-content comparisons against the model
	RefcountChecks     int // frames whose refcount ledger was audited
	QuarantineChecks   int // quarantined frames audited for exclusion
	CompletenessGroups int // duplicate-content groups checked at the end
}

// Checker audits a platform run against the reference model. It implements
// platform.Verifier; wire it in via Config.Verifier. The four invariants:
//
//  1. Content: every present guest page reads exactly what the model says
//     it should — equivalently, no two pages with different reference
//     contents ever share a frame.
//  2. Refcounts: every allocated frame's refcount equals its mapper count
//     plus the dedup engine's tree/zero-frame holds; shared frames are CoW
//     and every mapping of a shared frame is write-protected.
//  3. Quarantine: frames withdrawn by the UE policy are never stable-tree
//     members and never gain sharers while the hardware engine is live.
//  4. Completeness (Final): on a converged fault-free run, every group of
//     ≥2 clean same-content mergeable pages shares exactly one frame.
type Checker struct {
	Model    *Model
	Mode     platform.Mode
	Counters Counters

	// Tamper, when set, runs before the checks at every observation point.
	// Tests use it to inject model or machine corruption and prove the
	// checker catches it; production runs leave it nil.
	Tamper func(p platform.VerifyPoint)

	hv   *vm.Hypervisor
	page []byte // the buffer checkContents reads each page into
	// saved holds the shadow-model clones taken at platform checkpoints
	// (keyed by pass; -1 = boot), so crash restores can rewind the reference
	// alongside the machine. See crash.go.
	saved map[int]*Model
}

// BeginRun implements platform.Verifier: snapshot the freshly-built image.
func (c *Checker) BeginRun(mode platform.Mode, img *tailbench.Image) {
	c.Mode = mode
	c.hv = img.HV
	c.page = make([]byte, mem.PageSize)
	if c.Model == nil {
		c.Model = NewModel()
	}
	c.Model.Attach(img.HV)
}

// Interval implements platform.Verifier: audit one observation point.
func (c *Checker) Interval(p platform.VerifyPoint) error {
	if c.Tamper != nil {
		c.Tamper(p)
	}
	c.Counters.Intervals++
	if err := c.checkContents(); err != nil {
		return c.fail(p, err)
	}
	if err := c.checkRefcounts(p); err != nil {
		return c.fail(p, err)
	}
	if err := c.checkQuarantine(p); err != nil {
		return c.fail(p, err)
	}
	return nil
}

func (c *Checker) fail(p platform.VerifyPoint, err error) error {
	return fmt.Errorf("check: %s %s[%d]: %w", p.Mode, p.Phase, p.Index, err)
}

// eachPresent visits present guest pages in deterministic (VM, GFN) order.
func (c *Checker) eachPresent(visit func(id vm.PageID, pfn mem.PFN) error) error {
	for i := 0; i < c.hv.NumVMs(); i++ {
		v := c.hv.VM(i)
		for g := vm.GFN(0); int(g) < v.Pages(); g++ {
			pfn, ok := v.Resolve(g)
			if !ok {
				continue
			}
			if err := visit(v.PageID(g), pfn); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkContents enforces invariant 1: each page reads its model contents.
func (c *Checker) checkContents() error {
	return c.eachPresent(func(id vm.PageID, pfn mem.PFN) error {
		c.Counters.ContentChecks++
		want := c.Model.Expected(id)
		got := c.page
		c.hv.Phys.ReadAt(pfn, 0, got)
		if want == nil {
			return fmt.Errorf("invariant 1: page %v present but unknown to the model", id)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(want) && got[i] == want[i] {
				i++
			}
			return fmt.Errorf("invariant 1: page %v (frame %d, %d mappers) diverges from model at byte %d: got %#x want %#x",
				id, pfn, c.hv.MapperCount(pfn), i, got[i], want[i])
		}
		return nil
	})
}

// engineHolds counts the dedup engine's non-mapping frame references: one
// per stable node and one per unstable node.
func engineHolds(p platform.VerifyPoint) map[mem.PFN]int {
	holds := map[mem.PFN]int{}
	if p.Alg == nil {
		return holds
	}
	count := func(n *rbtree.Node) bool { holds[n.PFN]++; return true }
	p.Alg.Stable.InOrder(count)
	p.Alg.Unstable.InOrder(count)
	return holds
}

// checkRefcounts enforces invariant 2: the frame refcount ledger balances
// and sharing implies write protection.
func (c *Checker) checkRefcounts(p platform.VerifyPoint) error {
	holds := engineHolds(p)
	phys := c.hv.Phys
	for pfn := mem.PFN(0); int(pfn) < phys.TotalFrames(); pfn++ {
		if !phys.Allocated(pfn) {
			if holds[pfn] > 0 {
				return fmt.Errorf("invariant 2: frame %d is free but the engine holds %d reference(s) on it", pfn, holds[pfn])
			}
			continue
		}
		c.Counters.RefcountChecks++
		f := phys.Get(pfn)
		mappers := c.hv.Mappers(pfn)
		want := len(mappers) + holds[pfn]
		if f.Refs() != want {
			return fmt.Errorf("invariant 2: frame %d refcount %d != %d mappers + %d engine holds",
				pfn, f.Refs(), len(mappers), holds[pfn])
		}
		if len(mappers) > 1 {
			if !f.CoW() {
				return fmt.Errorf("invariant 2: frame %d shared by %d pages but not CoW-protected", pfn, len(mappers))
			}
			for _, id := range mappers {
				if !c.hv.VM(int(id.VM)).WriteProtected(id.GFN) {
					return fmt.Errorf("invariant 2: frame %d shared by %d pages but mapping %v is writable",
						pfn, len(mappers), id)
				}
			}
		}
	}
	return nil
}

// checkQuarantine enforces invariant 3 while the hardware engine is live
// (VerifyPoint.Quarantined is nil otherwise and the check is vacuous).
func (c *Checker) checkQuarantine(p platform.VerifyPoint) error {
	if p.Quarantined == nil {
		return nil
	}
	stable := map[mem.PFN]bool{}
	if p.Alg != nil {
		p.Alg.Stable.InOrder(func(n *rbtree.Node) bool { stable[n.PFN] = true; return true })
	}
	phys := c.hv.Phys
	for pfn := mem.PFN(0); int(pfn) < phys.TotalFrames(); pfn++ {
		if !phys.Allocated(pfn) || !p.Quarantined(pfn) {
			continue
		}
		c.Counters.QuarantineChecks++
		if stable[pfn] {
			return fmt.Errorf("invariant 3: quarantined frame %d is a stable-tree merge target", pfn)
		}
		if n := c.hv.MapperCount(pfn); n > 1 {
			return fmt.Errorf("invariant 3: quarantined frame %d gained sharers (%d mappers)", pfn, n)
		}
	}
	return nil
}

// Final enforces invariant 4 after the run: on a converged fault-free run
// (converged = fault-free and ≥2 convergence passes, since the hash gate
// defers first-sighting pages to the second pass), every duplicate-content
// group of clean mergeable pages must have been folded onto a single
// frame. Clean pages are never written, so the property persists through
// the measurement phase's churn.
func (c *Checker) Final(converged bool) error {
	if !converged {
		return nil
	}
	groups := map[string][]vm.PageID{}
	frames := map[string][]mem.PFN{}
	err := c.eachPresent(func(id vm.PageID, pfn mem.PFN) error {
		if !c.Model.Clean(id) || !c.hv.VM(int(id.VM)).Mergeable(id.GFN) {
			return nil
		}
		key := string(c.Model.Expected(id))
		groups[key] = append(groups[key], id)
		frames[key] = append(frames[key], pfn)
		return nil
	})
	if err != nil {
		return err
	}
	for key, ids := range groups {
		if len(ids) < 2 {
			continue
		}
		c.Counters.CompletenessGroups++
		for i, pfn := range frames[key] {
			if pfn != frames[key][0] {
				return fmt.Errorf("check: %s: invariant 4: clean duplicate pages %v (frame %d) and %v (frame %d) were never merged (group of %d)",
					c.Mode, ids[0], frames[key][0], ids[i], pfn, len(ids))
			}
		}
	}
	return nil
}

// MergeGroups reports the observed clean merge sets: for every frame
// shared by ≥2 clean pages, the sorted list of those pages, canonically
// rendered and sorted. Dirty pages are projected out — their contents (and
// hence merge membership) legitimately depend on engine timing — so the
// result is directly comparable across engine modes.
func (c *Checker) MergeGroups() []string {
	byFrame := map[mem.PFN][]string{}
	_ = c.eachPresent(func(id vm.PageID, pfn mem.PFN) error {
		if c.Model.Clean(id) {
			byFrame[pfn] = append(byFrame[pfn], id.String())
		}
		return nil
	})
	var out []string
	for _, ids := range byFrame {
		if len(ids) < 2 {
			continue
		}
		sort.Strings(ids)
		out = append(out, strings.Join(ids, "+"))
	}
	sort.Strings(out)
	return out
}
