package platform

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rbtree"
	"repro/internal/snapshot"
	"repro/internal/tailbench"
	"repro/internal/vm"
)

// The batch≡streaming equivalence harness. Run is a thin driver over the
// tick-driven Runtime, so "batch equals streaming" for an empty event
// schedule is true by construction; what these tests pin is the part that
// is NOT by construction: a live event stream Injected into a manually
// stepped Runtime must be indistinguishable from the same schedule carried
// in Config.Events through batch Run — same Result, same series points,
// same ledger events — in every world shape (plain engines, sharded index,
// injected faults, overcommit storm, crash-with-recovery).

// streamSchedule is a live-event script that exercises every stream kind:
// a mid-run spawn, a mid-run kill, and an application phase flip. The script
// is front-loaded (passes 1..3) because the fast test configs converge
// within a handful of passes — each event perturbs the frame count, which
// postpones the convergence verdict past the next event.
func streamSchedule() []Event {
	return []Event{
		{Pass: 1, Kind: EvVMSpawn},
		{Pass: 2, Kind: EvVMKill, VM: 1},
		{Pass: 3, Kind: EvPhaseChange, Frac: 0.4},
	}
}

// runStreamed executes the runtime tick by tick, injecting each scheduled
// event live just before the runtime reaches its pass — the streaming half
// of the equivalence.
func runStreamed(t *testing.T, mode Mode, app tailbench.Profile, cfg Config, sched []Event) *Result {
	t.Helper()
	r := NewRuntime(mode, app, cfg)
	if err := r.Start(); err != nil {
		t.Fatalf("stream start: %v", err)
	}
	i := 0
	for {
		for i < len(sched) && !r.Done() && sched[i].Pass <= r.Pass() {
			if err := r.Inject(sched[i]); err != nil {
				t.Fatalf("inject %v at pass %d: %v", sched[i].Kind, r.Pass(), err)
			}
			i++
		}
		done, err := r.Step()
		if err != nil {
			t.Fatalf("stream step: %v", err)
		}
		if done {
			break
		}
	}
	if i < len(sched) {
		t.Fatalf("run converged before event %d (%v at pass %d) could be injected; retune the schedule",
			i, sched[i].Kind, sched[i].Pass)
	}
	return r.Result()
}

// TestStreamEquivalence is the headline deliverable: for every world shape,
// batch Run with a config-scheduled event stream is bit-identical — Result,
// per-pass series points, provenance ledger events — to an event stream
// injected live into a stepped Runtime.
func TestStreamEquivalence(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name  string
		mode  Mode
		setup func() (tailbench.Profile, Config)
		sched []Event
	}{
		{"KSM", KSM,
			func() (tailbench.Profile, Config) { return fastApp("silo"), fastConfig() },
			streamSchedule()},
		{"KSM-sharded", KSM,
			func() (tailbench.Profile, Config) {
				cfg := fastConfig()
				cfg.ShardBits = 2
				cfg.ShardWorkers = 3
				return fastApp("silo"), cfg
			},
			streamSchedule()},
		{"PageForge", PageForge,
			func() (tailbench.Profile, Config) { return fastApp("img_dnn"), fastConfig() },
			streamSchedule()},
		{"PageForge-faultstorm", PageForge,
			func() (tailbench.Profile, Config) {
				cfg := fastConfig()
				cfg.Faults = faults.Config{Seed: 7, TransientPerRead: 0.01, DoubleBitPerRead: 0.002}
				return fastApp("img_dnn"), cfg
			},
			[]Event{
				{Pass: 2, Kind: EvFaultStorm, Passes: 3, Boost: 25},
				{Pass: 3, Kind: EvVMKill, VM: 1},
			}},
		// The overcommit storm itself moves from the config schedule to the
		// live stream: a pressure storm injected live must match the same
		// storm scheduled in the config.
		{"KSM-storm", KSM,
			func() (tailbench.Profile, Config) {
				app, cfg := stormConfig(7)
				cfg.Events = nil
				return app, cfg
			},
			[]Event{
				{Pass: 1, Kind: EvBalloonStorm, Pages: 30, Passes: 3},
				{Pass: 1, Kind: EvVMKill, VM: 0},
			}},
		{"PageForge-crash", PageForge,
			func() (tailbench.Profile, Config) {
				cfg := crashTestConfig()
				cfg.CheckpointEvery = 2
				return fastApp("img_dnn"), cfg
			},
			[]Event{
				{Pass: 2, Kind: EvVMKill, VM: 1},
				{Pass: 3, Kind: EvVMSpawn},
				{Pass: 4, Kind: EvCrash},
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			app, batchCfg := tc.setup()
			batchCfg.Events = tc.sched
			batchLdg := instrument(&batchCfg)
			batch, err := Run(tc.mode, app, batchCfg)
			if err != nil {
				t.Fatalf("batch run: %v", err)
			}

			_, streamCfg := tc.setup()
			streamLdg := instrument(&streamCfg)
			stream := runStreamed(t, tc.mode, app, streamCfg, tc.sched)

			if !reflect.DeepEqual(batch, stream) {
				t.Fatalf("streamed run diverged from batch run\nbatch:  %+v\nstream: %+v", batch, stream)
			}
			if !reflect.DeepEqual(batchLdg.Events(), streamLdg.Events()) {
				t.Fatalf("ledger streams diverged (batch %d events, stream %d events)",
					batchLdg.Len(), streamLdg.Len())
			}
			name := tc.mode.String() + "/" + app.Name
			bp := batchCfg.Series.Track(name).Points()
			sp := streamCfg.Series.Track(name).Points()
			if len(bp) == 0 {
				t.Fatal("series sampled nothing")
			}
			if !reflect.DeepEqual(bp, sp) {
				t.Fatalf("series points diverged (batch %d, stream %d)", len(bp), len(sp))
			}
		})
	}
}

// TestSnapshotRestoreFreshRuntime is the N+M resumability property: step N
// passes, Snapshot, Restore into a brand-new runtime built from the same
// config, and drain — the result must equal the uninterrupted N+M run. Run
// with a live-event schedule straddling the snapshot points, so the blob's
// applied-event cursor is what makes the fresh runtime replay correctly.
// No verifier: a fresh runtime's shadow model would have no history of the
// churned contents (see Runtime.Restore).
func TestSnapshotRestoreFreshRuntime(t *testing.T) {
	t.Parallel()
	for _, mode := range []Mode{KSM, PageForge} {
		t.Run(mode.String(), func(t *testing.T) {
			app := fastApp("silo")
			cfg := fastConfig()
			cfg.Events = []Event{
				{Pass: 1, Kind: EvVMSpawn},
				{Pass: 2, Kind: EvVMKill, VM: 1},
				{Pass: 3, Kind: EvPhaseChange, Frac: 0.4},
			}
			want, err := Run(mode, app, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// N=2 snapshots mid-schedule (the phase flip is still pending);
			// N=4 snapshots after every event applied.
			for _, n := range []int{2, 4} {
				a := NewRuntime(mode, app, cfg)
				if err := a.Start(); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					done, err := a.Step()
					if err != nil {
						t.Fatal(err)
					}
					if done {
						t.Fatalf("run finished before %d passes", n)
					}
				}
				blob, err := a.Snapshot()
				if err != nil {
					t.Fatalf("snapshot at pass %d: %v", n, err)
				}

				b := NewRuntime(mode, app, cfg)
				if err := b.Start(); err != nil {
					t.Fatal(err)
				}
				if err := b.Restore(blob); err != nil {
					t.Fatalf("restore at pass %d: %v", n, err)
				}
				if b.Pass() != n {
					t.Fatalf("restored runtime resumes at pass %d, want %d", b.Pass(), n)
				}
				got, err := b.Drain()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("snapshot(N=%d)+restore+drain diverged from uninterrupted run\ngot:  %+v\nwant: %+v", n, got, want)
				}

				// The donor runtime is untouched by the snapshot: draining it
				// reproduces the same result too.
				cont, err := a.Drain()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cont, want) {
					t.Fatalf("donor runtime diverged after snapshot (N=%d)", n)
				}
			}
		})
	}
}

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
			cfg.Events = []Event{
				{Pass: 1, Kind: EvVMSpawn},
				{Pass: 2, Kind: EvVMKill, VM: 1},
				{Pass: 3, Kind: EvPhaseChange, Frac: 0.4},
			}
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
