package vm

import (
	"errors"
	"testing"

	"repro/internal/mem"
)

// TestBalloonReclaimOrder pins the deterministic victim policy: round-robin
// across VMs, top GFN downward within each, sole-mapper frames only.
func TestBalloonReclaimOrder(t *testing.T) {
	h := newHV(16)
	a := h.NewVM(4 * mem.PageSize)
	b := h.NewVM(4 * mem.PageSize)
	for g := GFN(0); g < 4; g++ {
		if err := a.Touch(g); err != nil {
			t.Fatal(err)
		}
		if err := b.Touch(g); err != nil {
			t.Fatal(err)
		}
	}
	bal := NewBalloon(h)
	freeBefore := h.Phys.FreeFrames()
	if got := bal.Reclaim(3); got != 3 {
		t.Fatalf("Reclaim(3) = %d", got)
	}
	if h.Phys.FreeFrames() != freeBefore+3 {
		t.Fatalf("free frames %d, want %d", h.Phys.FreeFrames(), freeBefore+3)
	}
	// First call starts at VM 0 and sweeps top-down: gfn 3, 2, 1 released.
	for g := GFN(1); g < 4; g++ {
		if a.Present(g) {
			t.Fatalf("vm0 gfn %d still present", g)
		}
	}
	if !a.Present(0) || !b.Present(3) {
		t.Fatal("balloon took more than asked")
	}
	// Cursor advanced: the next call starts at VM 1.
	if got := bal.Reclaim(1); got != 1 {
		t.Fatal("second reclaim failed")
	}
	if b.Present(3) {
		t.Fatal("round-robin cursor did not advance to vm1")
	}
	if bal.Inflated != 4 || bal.Reclaimed != 4 {
		t.Fatalf("inflated=%d reclaimed=%d, want 4/4", bal.Inflated, bal.Reclaimed)
	}
}

// TestBalloonSkipsSharedFrames: releasing a shared page frees nothing, so
// the balloon must pass over merged frames.
func TestBalloonSkipsSharedFrames(t *testing.T) {
	h := newHV(16)
	a := h.NewVM(2 * mem.PageSize)
	b := h.NewVM(2 * mem.PageSize)
	content := []byte("dup")
	if _, err := a.Write(1, 0, content); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(1, 0, content); err != nil {
		t.Fatal(err)
	}
	dst, _ := a.Resolve(1)
	if _, err := h.Merge(b.PageID(1), dst); err != nil {
		t.Fatal(err)
	}
	bal := NewBalloon(h)
	if got := bal.Reclaim(8); got != 0 {
		t.Fatalf("reclaimed %d frames from a fully-shared fleet", got)
	}
	if !a.Present(1) || !b.Present(1) {
		t.Fatal("balloon released a shared page")
	}
}

// TestAllocStallRetry pins the stall-and-retry protocol: an exhausted
// guest-path allocation consults the Reclaim hook, retries after the
// balloon frees frames, and propagates the typed error once the hook gives
// up.
func TestAllocStallRetry(t *testing.T) {
	h := newHV(4)
	v := h.NewVM(8 * mem.PageSize)
	for g := GFN(0); g < 4; g++ {
		if err := v.Touch(g); err != nil {
			t.Fatal(err)
		}
	}
	// No hook: exhaustion is immediate and typed.
	if err := v.Touch(4); !errors.Is(err, mem.ErrOutOfFrames) {
		t.Fatalf("hookless exhaustion: err = %v", err)
	}
	if h.AllocStalls != 0 {
		t.Fatal("hookless failure counted a stall")
	}

	// Hook that balloons one frame per stall: the fault succeeds after one
	// retry.
	bal := NewBalloon(h)
	h.Reclaim = func(attempt int) bool { return bal.Reclaim(1) > 0 }
	if err := v.Touch(4); err != nil {
		t.Fatalf("fault with reclaim hook: %v", err)
	}
	if h.AllocStalls != 1 {
		t.Fatalf("AllocStalls = %d, want 1", h.AllocStalls)
	}

	// Hook that gives up after maxRetries: bounded, typed failure — the
	// no-deadlock guarantee.
	const maxRetries = 3
	calls := 0
	h.Reclaim = func(attempt int) bool { calls++; return attempt < maxRetries }
	free := h.Phys.FreeFrames()
	for g := GFN(5); ; g++ { // exhaust what the balloon freed
		if free == 0 {
			break
		}
		if err := v.Touch(g); err != nil {
			t.Fatal(err)
		}
		free--
	}
	stallsBefore := h.AllocStalls
	err := v.Touch(7)
	if !errors.Is(err, mem.ErrOutOfFrames) {
		t.Fatalf("exhausted retry: err = %v", err)
	}
	if calls != maxRetries {
		t.Fatalf("hook called %d times, want %d", calls, maxRetries)
	}
	if h.AllocStalls != stallsBefore+maxRetries {
		t.Fatalf("AllocStalls advanced by %d, want %d", h.AllocStalls-stallsBefore, maxRetries)
	}
}

// TestOnReleaseHook: every release path (balloon or direct) fires the hook
// after the mapping is gone.
func TestOnReleaseHook(t *testing.T) {
	h := newHV(8)
	v := h.NewVM(4 * mem.PageSize)
	var released []PageID
	h.OnRelease = func(id PageID) {
		if v.Present(id.GFN) {
			t.Fatalf("OnRelease(%v) fired with the page still present", id)
		}
		released = append(released, id)
	}
	if _, err := v.Write(2, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	v.Release(2)
	v.Release(2) // not present: no hook
	bal := NewBalloon(h)
	if err := v.Touch(3); err != nil {
		t.Fatal(err)
	}
	bal.Reclaim(1)
	want := []PageID{{0, 2}, {0, 3}}
	if len(released) != 2 || released[0] != want[0] || released[1] != want[1] {
		t.Fatalf("released = %v, want %v", released, want)
	}
}
