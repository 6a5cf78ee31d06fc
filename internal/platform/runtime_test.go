package platform

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/ksm"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rbtree"
	"repro/internal/snapshot"
	"repro/internal/tailbench"
	"repro/internal/vm"
)

// TestRestoreSlotCensus checks the frame store a platform Restore rebuilds
// against the checkpoint it came from: one live slot per distinct nonzero
// content of the captured mem.PhysState plus the zero page, and a memory
// image that captures back to exactly that state. The world runs on past
// the snapshot first, through a VM kill and a phase change (which also keep
// it converging), so the restore has frees, merges and CoW breaks to undo.
func TestRestoreSlotCensus(t *testing.T) {
	t.Parallel()
	for _, mode := range []Mode{KSM, PageForge} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := fastConfig()
			cfg.Events = liveSchedule()
			r := NewRuntime(mode, fastApp("silo"), cfg)
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			step := func(n int) {
				for i := 0; i < n; i++ {
					if done, err := r.Step(); err != nil || done {
						t.Fatalf("step: done=%v err=%v", done, err)
					}
				}
			}
			step(2)
			blob, err := r.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var w worldPayload
			if err := snapshot.Decode(blob, crashSnapshotVersion, &w); err != nil {
				t.Fatal(err)
			}
			step(2)
			if err := r.Restore(blob); err != nil {
				t.Fatal(err)
			}
			phys := r.img.HV.Phys
			contents := len(w.Phys.Pages) / mem.PageSize
			if contents == 0 {
				t.Fatal("checkpoint holds no nonzero content")
			}
			if got := phys.LiveSlots(); got != contents+1 {
				t.Fatalf("%d live slots after restore, want %d distinct contents + the zero page", got, contents)
			}
			got, err := phys.State()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, w.Phys) {
				t.Fatal("restored memory image captures to a different PhysState than the checkpoint")
			}
		})
	}
}

// TestSnapshotRestoreKeepsItems: the KSM items a Snapshot captures come
// back exactly from a Restore, into the donor after it ran on and into a
// fresh runtime. The sharded world prepares every scan-order slab before
// its passes, so it also holds items that never got a hash.
func TestSnapshotRestoreKeepsItems(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"KSM", "KSM-sharded", "PageForge"} {
		t.Run(name, func(t *testing.T) {
			w := rows[name]
			items := func(r *Runtime) []ksm.ItemState {
				st, err := r.alg.State()
				if err != nil {
					t.Fatal(err)
				}
				return st.Items
			}
			donor := NewRuntime(w.mode, w.app, w.cfg)
			if err := donor.Start(); err != nil {
				t.Fatal(err)
			}
			for donor.Pass() < 3 {
				if done, err := donor.Step(); err != nil || done {
					t.Fatalf("step: done=%v err=%v", done, err)
				}
			}
			blob, err := donor.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want := items(donor)
			if len(want) == 0 {
				t.Fatal("snapshot holds no items")
			}
			if done, err := donor.Step(); err != nil || done {
				t.Fatalf("step: done=%v err=%v", done, err)
			}
			fresh := NewRuntime(w.mode, w.app, w.cfg)
			if err := fresh.Start(); err != nil {
				t.Fatal(err)
			}
			for _, r := range []*Runtime{donor, fresh} {
				if err := r.Restore(blob); err != nil {
					t.Fatal(err)
				}
				if got := items(r); !reflect.DeepEqual(got, want) {
					t.Fatalf("restore yields %d items, the snapshot %d, or their keys differ", len(got), len(want))
				}
			}
		})
	}
}

// TestStartRejectsBadCoreCount pins the machine-shape check: a world with
// no cores is a configuration error Start reports, not a panic.
func TestStartRejectsBadCoreCount(t *testing.T) {
	t.Parallel()
	for _, cores := range []int{0, -1} {
		cfg := fastConfig()
		cfg.Cores = cores
		if err := NewRuntime(KSM, fastApp("silo"), cfg).Start(); err == nil {
			t.Fatalf("Start accepted %d cores", cores)
		}
	}
}

// TestEntryPointsAfterFailedStart pins that a Start which failed leaves a
// runtime every entry point rejects with Start's error instead of stepping
// a half-built world into a nil-pointer panic.
func TestEntryPointsAfterFailedStart(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.Cores = 0
	r := NewRuntime(KSM, fastApp("silo"), cfg)
	startErr := r.Start()
	if startErr == nil {
		t.Fatal("Start accepted 0 cores")
	}
	calls := map[string]func() error{
		"Step":     func() error { _, err := r.Step(); return err },
		"Inject":   func() error { return r.Inject(Event{Kind: EvVMSpawn}) },
		"Drain":    func() error { _, err := r.Drain(); return err },
		"Snapshot": func() error { _, err := r.Snapshot(); return err },
		"Restore":  func() error { return r.Restore(nil) },
	}
	for name, call := range calls {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s panicked: %v", name, p)
				}
			}()
			if err := call(); !errors.Is(err, startErr) {
				t.Errorf("%s = %v, want Start's error %v", name, err, startErr)
			}
		}()
	}
	if err := r.Start(); err == nil {
		t.Error("a second Start succeeded")
	}
}

// TestBaselineStartAllocs bounds the allocations of one paper-size Baseline
// Start below 500. The per-frame and per-page bookkeeping lives in flat
// arrays made once per world, so the count does not grow with the image
// (about 90); one heap object per touched page would add about 16,000. The
// test does not call t.Parallel: AllocsPerRun counts every goroutine's
// allocations, and the parallel tests wait until the sequential ones end.
func TestBaselineStartAllocs(t *testing.T) {
	app, cfg := *tailbench.ProfileByName("silo"), DefaultConfig()
	allocs := testing.AllocsPerRun(2, func() {
		if err := NewRuntime(Baseline, app, cfg).Start(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 500 {
		t.Fatalf("a paper-size Baseline Start makes %.0f allocations, want fewer than 500", allocs)
	}
}

// TestSnapshotBaselineRejected pins the Snapshot/Restore surface contract:
// Baseline has no dedup world to capture.
func TestSnapshotBaselineRejected(t *testing.T) {
	t.Parallel()
	r := NewRuntime(Baseline, fastApp("silo"), fastConfig())
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Snapshot(); err == nil {
		t.Fatal("Baseline snapshot succeeded")
	}
	if err := r.Restore(nil); err == nil {
		t.Fatal("Baseline restore succeeded")
	}
	if err := r.Inject(Event{Kind: EvVMSpawn}); err == nil {
		t.Fatal("Baseline inject succeeded")
	}
}

// TestInjectRejectsPastHorizon pins the Inject contract at the end of the
// convergence phase: an event whose pass is at or past ConvergePasses could
// never apply (the phase ends first), so Inject rejects it rather than
// accepting an event that silently never happens. The last pass still
// accepts events, crashes included.
func TestInjectRejectsPastHorizon(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.CheckpointEvery = 2
	r := NewRuntime(KSM, fastApp("silo"), cfg)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	last := cfg.ConvergePasses - 1
	for _, e := range []Event{
		{Pass: cfg.ConvergePasses, Kind: EvVMKill},
		{Pass: cfg.ConvergePasses + 5, Kind: EvCrash},
	} {
		if err := r.Inject(e); err == nil {
			t.Fatalf("Inject accepted %v at pass %d, past the last convergence pass %d", e.Kind, e.Pass, last)
		}
	}
	for _, e := range []Event{
		{Pass: last, Kind: EvPhaseChange, Frac: 0.1},
		{Pass: last, Kind: EvCrash},
	} {
		if err := r.Inject(e); err != nil {
			t.Fatalf("Inject rejected %v at the last convergence pass %d: %v", e.Kind, last, err)
		}
	}
}

// TestVMKillTeardown audits the mid-run kill path: after a drained run
// whose schedule kills a VM, the victim's address space is fully unmapped,
// no stable/unstable tree node holds a freed frame, the frame refcount
// ledger balances (mappers + engine holds), and the kill actually returned
// frames to the arena relative to the same run without it.
func TestVMKillTeardown(t *testing.T) {
	t.Parallel()
	app := fastApp("silo")
	for _, mode := range []Mode{KSM, PageForge} {
		t.Run(mode.String(), func(t *testing.T) {
			plainRT := NewRuntime(mode, app, fastConfig())
			if err := plainRT.Start(); err != nil {
				t.Fatal(err)
			}
			if _, err := plainRT.Drain(); err != nil {
				t.Fatal(err)
			}

			cfg := fastConfig()
			cfg.Events = []Event{{Pass: 2, Kind: EvVMKill, VM: 2}}
			r := NewRuntime(mode, app, cfg)
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Drain(); err != nil {
				t.Fatal(err)
			}

			hv := r.img.HV
			victim := hv.VM(2)
			for g := vm.GFN(0); int(g) < victim.Pages(); g++ {
				if _, ok := victim.Resolve(g); ok {
					t.Fatalf("killed VM still maps GFN %d", g)
				}
				if victim.Mergeable(g) {
					t.Fatalf("killed VM GFN %d still advertised mergeable", g)
				}
			}
			if r.img.LiveVMs() != cfg.VMs-1 {
				t.Fatalf("live VM count %d, want %d", r.img.LiveVMs(), cfg.VMs-1)
			}

			// Engine holds: stable nodes and unstable nodes.
			holds := map[mem.PFN]int{}
			count := func(n *rbtree.Node) bool { holds[n.PFN]++; return true }
			r.alg.Stable.InOrder(count)
			r.alg.Unstable.InOrder(count)
			phys := hv.Phys
			for pfn := mem.PFN(0); int(pfn) < phys.TotalFrames(); pfn++ {
				if !phys.Allocated(pfn) {
					if holds[pfn] > 0 {
						t.Fatalf("freed frame %d still held by %d tree node(s)", pfn, holds[pfn])
					}
					continue
				}
				if got, want := phys.Get(pfn).Refs(), len(hv.Mappers(pfn))+holds[pfn]; got != want {
					t.Fatalf("frame %d refcount %d != mappers+holds %d after kill", pfn, got, want)
				}
			}

			killAlloc := phys.AllocatedFrames()
			plainAlloc := plainRT.img.HV.Phys.AllocatedFrames()
			if killAlloc >= plainAlloc {
				t.Fatalf("kill freed nothing: %d allocated frames with kill, %d without", killAlloc, plainAlloc)
			}
		})
	}
}

// TestVMKillLedgerBalanced replays the provenance ledger of a kill run: the
// teardown must be recorded as eviction events for every present frame the
// victim held, and attaching the ledger must not perturb the run.
func TestVMKillLedgerBalanced(t *testing.T) {
	t.Parallel()
	app := fastApp("silo")
	cfg := fastConfig()
	cfg.Events = []Event{{Pass: 2, Kind: EvVMKill, VM: 2}}
	plain, err := Run(KSM, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ldg := instrument(&cfg)
	instrumented, err := Run(KSM, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatal("ledger instrumentation perturbed the kill run")
	}
	evicted := 0
	for _, e := range ldg.Events() {
		if e.VM == 2 && (e.Kind == obs.LKEvicted || e.Kind == obs.LKBallooned) && e.Pass == 2 {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("kill produced no eviction provenance for the victim VM")
	}
	if evicted > app.PagesPerVM+app.BurstPagesPerVM {
		t.Fatalf("kill evicted %d pages, victim only had %d", evicted, app.PagesPerVM+app.BurstPagesPerVM)
	}
}
