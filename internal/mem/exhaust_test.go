package mem

import (
	"errors"
	"testing"
)

// TestExhaustionTyped pins the exhaustion contract: both Alloc variants
// return ErrOutOfFrames (never panic), and AllocFails counts every failed
// attempt.
func TestExhaustionTyped(t *testing.T) {
	p := New(4 * PageSize)
	var got []PFN
	for {
		pfn, err := p.Alloc()
		if err != nil {
			if !errors.Is(err, ErrOutOfFrames) {
				t.Fatalf("exhaustion err = %v, want ErrOutOfFrames", err)
			}
			break
		}
		got = append(got, pfn)
	}
	if len(got) != 4 {
		t.Fatalf("allocated %d frames from a 4-frame arena", len(got))
	}
	if _, err := p.AllocForCopy(); !errors.Is(err, ErrOutOfFrames) {
		t.Fatalf("AllocForCopy exhaustion err = %v, want ErrOutOfFrames", err)
	}
	if p.AllocFails != 2 {
		t.Fatalf("AllocFails = %d, want 2", p.AllocFails)
	}
}

// TestExhaustionRecovery drives the full alloc-fail → free → alloc-succeed
// sequence and checks that recovery preserves the canonical lowest-PFN
// allocation order: after frames are returned in arbitrary order, Alloc
// must hand them back lowest-first, exactly as a fresh freelist would.
func TestExhaustionRecovery(t *testing.T) {
	const frames = 8
	p := New(frames * PageSize)
	all := make([]PFN, 0, frames)
	for i := 0; i < frames; i++ {
		pfn, err := p.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if pfn != PFN(i) {
			t.Fatalf("alloc %d handed frame %d, want lowest-first", i, pfn)
		}
		all = append(all, pfn)
	}
	if _, err := p.Alloc(); !errors.Is(err, ErrOutOfFrames) {
		t.Fatalf("exhausted arena err = %v", err)
	}

	// Free a scattered subset in non-canonical order.
	for _, pfn := range []PFN{5, 1, 6, 2} {
		p.DecRef(pfn)
	}
	if p.FreeFrames() != 4 {
		t.Fatalf("FreeFrames = %d after freeing 4", p.FreeFrames())
	}
	// Recovery must succeed and follow PFN order, independent of free order.
	for _, want := range []PFN{1, 2, 5, 6} {
		pfn, err := p.Alloc()
		if err != nil {
			t.Fatalf("post-recovery alloc: %v", err)
		}
		if pfn != want {
			t.Fatalf("post-recovery alloc handed frame %d, want %d", pfn, want)
		}
	}
	if _, err := p.Alloc(); !errors.Is(err, ErrOutOfFrames) {
		t.Fatal("arena should be exhausted again")
	}

	// Same property through a deferred-free window (parallel-pass mode).
	p.BeginDeferredFrees()
	for _, pfn := range []PFN{7, 0, 3} {
		p.DecRef(pfn)
	}
	if p.FreeFrames() != 0 {
		t.Fatal("deferred frees leaked into the freelist before the join")
	}
	p.EndDeferredFrees()
	for _, want := range []PFN{0, 3, 7} {
		pfn, err := p.Alloc()
		if err != nil {
			t.Fatalf("post-join alloc: %v", err)
		}
		if pfn != want {
			t.Fatalf("post-join alloc handed frame %d, want %d", pfn, want)
		}
	}
	_ = all
}
