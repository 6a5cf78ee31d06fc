package ksm

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/vm"
)

// Options mirror the tunables the Linux KSM implementation grew after the
// paper's snapshot; they are optional extensions over Algorithm 1.
type Options struct {
	// UseZeroPages merges all-zero candidate pages with one dedicated zero
	// frame immediately, without tree searches (Linux's use_zero_pages).
	// The paper's Figure 7 shows ~5% of pages are zero at any instant, so
	// this removes them from the trees entirely.
	UseZeroPages bool
	// SmartScan skips candidates whose hash has been unchanged for several
	// consecutive passes, doubling the skip distance each time up to
	// SmartScanMaxSkip passes (Linux's smart_scan). Converged deployments
	// spend most scanning effort re-checking stable pages; this recovers
	// that effort at the cost of slower reaction to changes.
	SmartScan        bool
	SmartScanMaxSkip uint64
}

// DefaultSmartScanMaxSkip bounds the skip distance like the kernel does.
const DefaultSmartScanMaxSkip = 8

// SetOptions configures the optional behaviours (call before scanning).
func (a *Algorithm) SetOptions(o Options) {
	if o.SmartScan && o.SmartScanMaxSkip == 0 {
		o.SmartScanMaxSkip = DefaultSmartScanMaxSkip
	}
	a.opts = o
}

// Options reports the active options.
func (a *Algorithm) Options() Options { return a.opts }

// zeroFrame lazily allocates the dedicated zero frame (the analogue of the
// kernel's empty_zero_page) and takes a permanent hold on it.
func (a *Algorithm) zeroFrame() (mem.PFN, error) {
	if a.zeroPFN != nil {
		return *a.zeroPFN, nil
	}
	pfn, err := a.HV.Phys.Alloc()
	if err != nil {
		return 0, err
	}
	a.zeroPFN = &pfn
	return pfn, nil
}

// TryMergeZero checks whether the candidate is an all-zero page and, if so,
// merges it with the dedicated zero frame. It reports (merged, bytesScanned):
// the zero check reads the page up to its first non-zero byte.
func (a *Algorithm) TryMergeZero(id vm.PageID) (bool, int) {
	pfn, ok := a.HV.Resolve(id)
	if !ok {
		return false, 0
	}
	page := a.HV.Phys.Page(pfn)
	// Word-at-a-time zero scan; the reported byte count is identical to the
	// byte-wise loop (index of the first nonzero byte, plus one).
	if i := mem.FirstNonZero(page); i >= 0 {
		return false, i + 1
	}
	zf, err := a.zeroFrame()
	if err != nil {
		return false, len(page)
	}
	if pfn == zf {
		return false, len(page)
	}
	if _, err := a.HV.Merge(id, zf); err != nil {
		bump(&a.Stats.FailedMerges)
		return false, len(page)
	}
	bump(&a.Stats.ZeroMerges)
	return true, len(page)
}

// ZeroFramePFN returns the dedicated zero frame, allocating it on first
// use. The PageForge driver compares candidates against it in hardware.
func (a *Algorithm) ZeroFramePFN() (mem.PFN, error) { return a.zeroFrame() }

// ZeroPFN reports the dedicated zero frame if one has been allocated,
// without allocating it. Verification tooling uses it to account for the
// permanent reference the algorithm holds on that frame.
func (a *Algorithm) ZeroPFN() (mem.PFN, bool) {
	if a.zeroPFN == nil {
		return 0, false
	}
	return *a.zeroPFN, true
}

// MergeWithZeroFrame merges a candidate whose contents were verified (by
// hardware or software) to be zero into the dedicated zero frame.
func (a *Algorithm) MergeWithZeroFrame(id vm.PageID) bool {
	zf, err := a.zeroFrame()
	if err != nil {
		return false
	}
	if pfn, ok := a.HV.Resolve(id); !ok || pfn == zf {
		return false
	}
	if _, err := a.HV.Merge(id, zf); err != nil {
		bump(&a.Stats.FailedMerges)
		return false
	}
	bump(&a.Stats.ZeroMerges)
	return true
}

// SmartSkip reports whether smart scan wants to skip this candidate in the
// current pass, updating its bookkeeping.
func (a *Algorithm) SmartSkip(id vm.PageID) bool {
	if !a.opts.SmartScan {
		return false
	}
	it := a.item(id)
	if a.pass < it.skipUntilPass {
		bump(&a.Stats.SmartSkips)
		return true
	}
	return false
}

// noteHashOutcome feeds smart scan: an unchanged page extends its streak
// and earns a (bounded) exponential skip; a changed page resets it.
func (a *Algorithm) noteHashOutcome(id vm.PageID, changed bool) {
	if !a.opts.SmartScan {
		return
	}
	it := a.item(id)
	if changed {
		it.unchangedStreak = 0
		it.skipUntilPass = 0
		return
	}
	if it.unchangedStreak < 63 {
		it.unchangedStreak++
	}
	skip := uint64(1) << (it.unchangedStreak - 1)
	if skip > a.opts.SmartScanMaxSkip {
		skip = a.opts.SmartScanMaxSkip
	}
	it.skipUntilPass = a.pass + 1 + skip
}

// Sysfs renders the /sys/kernel/mm/ksm-style counters the kernel exposes,
// computed from live state.
func (a *Algorithm) Sysfs() map[string]uint64 {
	shared, sharing := a.SharingStats()
	zeroSharing := uint64(0)
	if a.zeroPFN != nil {
		zeroSharing = uint64(a.HV.MapperCount(*a.zeroPFN))
	}
	return map[string]uint64{
		"pages_shared":    uint64(shared),
		"pages_sharing":   uint64(sharing),
		"pages_unshared":  uint64(a.Unstable.Size()),
		"pages_scanned":   a.Stats.PagesScanned,
		"full_scans":      a.Stats.FullScans,
		"ksm_zero_pages":  zeroSharing,
		"pages_skipped":   a.Stats.SmartSkips,
		"stable_node_dup": 0, // no duplicate stable chains in this model
	}
}

// SysfsString renders the counters in sorted key order.
func (a *Algorithm) SysfsString() string {
	m := a.Sysfs()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%-16s %d\n", k, m[k])
	}
	return out
}
