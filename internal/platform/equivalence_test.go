package platform

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pressure"
	"repro/internal/tailbench"
)

// The equivalence table. No observer and no execution mode may change the
// simulated machine: traced ≡ untraced, parallel ≡ sequential, batch ≡
// streaming, crash/restore ≡ uninterrupted, instrumented ≡ bare. Rows are
// worlds, columns are transforms. Each row runs its reference once per
// test binary, with a ledger and a series attached; each cell runs the
// row's config under one transform and must reproduce the reference's
// Result, series points and ledger events exactly. The tests at the bottom
// name the cells by the invariant they prove. A new world is a row, a new
// transform a column, and either needs only a cell line to run.

// world is one row: a mode, an app and a config whose event schedule rides
// in cfg.Events.
type world struct {
	name  string
	mode  Mode
	app   tailbench.Profile
	cfg   Config
	check func(ref *Result) error // row-specific, on the reference
}

// outcome is one run of a cell: its Result and the config that carried
// its observers.
type outcome struct {
	label string
	res   *Result
	cfg   Config
}

// transform is one column. tune changes the config on top of the row's
// (observers already attached); run executes it (nil: batch Run); crash,
// when set, marks a cell that arms the crash machinery: its Crash report
// must match crash and is then zeroed, and its ledger is compared without
// the restored markers and their sequence numbers.
type transform struct {
	tune  func(c *Config)
	run   func(t *testing.T, w world, cfg Config) []outcome
	check func(t *testing.T, o outcome)
	crash *wantCrash
}

// wantCrash is a crash cell's expected recovery report.
type wantCrash struct {
	crashes  int  // crashes fired, each restored
	replayed int  // passes lost across all crashes
	bootOnly bool // no periodic checkpoint: every restore rewinds to boot
}

func (w wantCrash) check(t *testing.T, rep CrashReport) {
	t.Helper()
	if rep.Crashes != w.crashes || rep.Restores != w.crashes {
		t.Fatalf("crashes=%d restores=%d, want %d/%d", rep.Crashes, rep.Restores, w.crashes, w.crashes)
	}
	if rep.ReplayedPasses != w.replayed {
		t.Fatalf("ReplayedPasses = %d, want %d", rep.ReplayedPasses, w.replayed)
	}
	switch {
	case w.bootOnly && rep.Checkpoints != 1:
		t.Fatalf("Checkpoints = %d, want 1 (boot only)", rep.Checkpoints)
	case !w.bootOnly && rep.Checkpoints < 2:
		t.Fatalf("Checkpoints = %d, want >= 2 (boot + periodic)", rep.Checkpoints)
	}
	if w.crashes == 0 {
		return
	}
	if rep.RecoveryCycles == 0 {
		t.Fatalf("recovery charged no cycles: %+v", rep)
	}
	// A boot restore rewinds to an empty stable tree, so it verifies no
	// nodes; it must instead have destroyed merges the replay redoes.
	if w.bootOnly && rep.RemergedPages == 0 {
		t.Fatal("boot restore destroyed no merges: the crash landed before any work")
	}
	if !w.bootOnly && rep.StableVerified == 0 {
		t.Fatalf("recovery verified no stable nodes: %+v", rep)
	}
}

// checkpointEvery arms periodic checkpoints and schedules host crashes at
// the given pass boundaries.
func checkpointEvery(every int, crashes ...int) func(c *Config) {
	return func(c *Config) {
		c.CheckpointEvery = every
		crashAt(c, crashes...)
	}
}

// crashAt schedules host crashes at the given pass boundaries on top of
// cfg's event schedule, copying the schedule so the caller's slice is never
// aliased.
func crashAt(cfg *Config, passes ...int) {
	events := append([]Event(nil), cfg.Events...)
	for _, p := range passes {
		events = append(events, Event{Pass: p, Kind: EvCrash})
	}
	cfg.Events = events
}

// columns are the transforms, by the cell name they give.
var columns = map[string]transform{
	// The same config again: a run is a function of its config.
	"repeat": {},
	// Every optional layer carries a populated config that is switched
	// off: only the enable switches may gate the layers' code paths.
	"layers-off": {tune: func(c *Config) {
		c.Pressure = pressure.DefaultConfig()
		c.Pressure.OvercommitRatio = 1.6
		c.Faults = faults.Config{Seed: 7}
	}},
	"traced": {
		tune: func(c *Config) { c.Trace = obs.NewTracer(obs.DefaultTraceCapacity) },
		check: func(t *testing.T, o outcome) {
			if o.cfg.Trace.Len() == 0 {
				t.Fatal("tracer attached but no events recorded")
			}
		},
	},
	// No ledger and no series: provenance never perturbs the run.
	"bare": {tune: func(c *Config) { c.Ledger, c.Series = nil, nil }},
	// One worker against the row's pool. ksm.ShardOf routes every generated
	// page to shard 0 (ROADMAP item 5), so the pool runs one busy shard
	// beside idle ones; the cell still proves the fan-out is invisible.
	"workers": {tune: func(c *Config) { c.ShardWorkers = 1 }},
	// The schedule injected live into a stepped Runtime.
	"stream": {run: streamed},
	// Checkpoints captured, no crash: capture must not perturb the run.
	"checkpoints": {tune: checkpointEvery(2), crash: &wantCrash{}},
	// Checkpoint at pass 1, crash at pass 2: exactly one pass lost.
	"crash": {tune: checkpointEvery(2, 2), crash: &wantCrash{crashes: 1, replayed: 1}},
	// The boot checkpoint is pass -1, so a crash at pass 2 replays 0..2.
	"crash-boot": {tune: checkpointEvery(0, 2), crash: &wantCrash{crashes: 1, replayed: 3, bootOnly: true}},
	// Two crashes at one pass restore the same checkpoint twice.
	"crash-twice": {tune: checkpointEvery(2, 2, 2), crash: &wantCrash{crashes: 2, replayed: 2}},
	"crash-bare": {
		tune: func(c *Config) {
			checkpointEvery(2, 2)(c)
			c.Ledger, c.Series = nil, nil
		},
		crash: &wantCrash{crashes: 1, replayed: 1},
	},
	// The crash, like the rest of the schedule, injected live.
	"crash-stream": {tune: checkpointEvery(2, 2), run: streamed, crash: &wantCrash{crashes: 1, replayed: 1}},
	"snapshot":     {run: snapshotRestore},
}

// liveSchedule exercises every topology event kind: a mid-run spawn, a
// mid-run kill, and an application phase flip. It is front-loaded
// (passes 1..3) because the fast configs converge within a handful of
// passes; each event perturbs the frame count, which postpones the
// convergence verdict past the next event.
func liveSchedule() []Event {
	return []Event{
		{Pass: 1, Kind: EvVMSpawn},
		{Pass: 2, Kind: EvVMKill, VM: 1},
		{Pass: 3, Kind: EvPhaseChange, Frac: 0.4},
	}
}

// rows are the worlds, by name.
var rows = func() map[string]world {
	ksm := fastConfig()
	ksm.Events = liveSchedule()
	sharded := ksm
	sharded.ShardBits, sharded.ShardWorkers = 3, 4
	pf := fastConfig()
	pf.Events = liveSchedule()
	faulted := fastConfig()
	faulted.Faults = faults.Config{Seed: 7, TransientPerRead: 0.01, DoubleBitPerRead: 0.002}
	faulted.Events = []Event{
		{Pass: 2, Kind: EvFaultStorm, Passes: 3, Boost: 25},
		{Pass: 3, Kind: EvVMKill, VM: 1},
	}
	repromoteApp, repromote := repromoteConfig()
	stormApp, storm := stormConfig(7)
	m := map[string]world{}
	for _, w := range []world{
		{name: "KSM", mode: KSM, app: fastApp("silo"), cfg: ksm},
		{name: "KSM-sharded", mode: KSM, app: fastApp("silo"), cfg: sharded},
		{name: "PageForge", mode: PageForge, app: fastApp("img_dnn"), cfg: pf},
		{name: "PageForge-faultstorm", mode: PageForge, app: fastApp("img_dnn"), cfg: faulted},
		// No crash cell: restoring this world's pass-1 checkpoint fails the
		// recovery audit (two stable frames hold equal contents), an open
		// defect.
		{name: "PageForge-repromote", mode: PageForge, app: repromoteApp, cfg: repromote,
			check: func(ref *Result) error {
				if ref.DegradedAtPass < 0 || ref.RepromotedAtPass < 0 {
					return fmt.Errorf("world did not degrade and re-promote: degraded at %d, re-promoted at %d",
						ref.DegradedAtPass, ref.RepromotedAtPass)
				}
				return nil
			}},
		{name: "KSM-storm", mode: KSM, app: stormApp, cfg: storm},
		{name: "PageForge-storm", mode: PageForge, app: stormApp, cfg: storm},
	} {
		m[w.name] = w
	}
	return m
}()

// cell is one entry of the table: a world run under a column, as the case
// name of the test that runs it ("" when that test has one cell).
type cell struct{ name, world, col string }

// equivalence runs cells against their rows' references, each case as a
// parallel subtest.
func equivalence(t *testing.T, cells ...cell) {
	t.Parallel()
	for _, c := range cells {
		if c.name == "" {
			runCell(t, c)
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			runCell(t, c)
		})
	}
}

// runCell runs one cell and compares it with its row's reference.
func runCell(t *testing.T, c cell) {
	t.Helper()
	w, ok := rows[c.world]
	if !ok {
		t.Fatalf("no world %q", c.world)
	}
	tr, ok := columns[c.col]
	if !ok {
		t.Fatalf("no transform %q", c.col)
	}
	ref := reference(t, w)
	cfg := w.cfg
	instrument(&cfg)
	if tr.tune != nil {
		tr.tune(&cfg)
	}
	run := tr.run
	if run == nil {
		run = batch
	}
	for _, o := range run(t, w, cfg) {
		if tr.check != nil {
			tr.check(t, o)
		}
		assertEquivalent(t, w, ref, o, tr.crash)
	}
}

// referenceRun is a row's reference, built by the first cell that needs it.
type referenceRun struct {
	once sync.Once
	out  outcome
	err  error
}

// references holds a *referenceRun per world name.
var references sync.Map

// reference returns w's instrumented reference run, running and checking
// it once for every test that compares against it.
func reference(t *testing.T, w world) outcome {
	t.Helper()
	v, _ := references.LoadOrStore(w.name, new(referenceRun))
	r := v.(*referenceRun)
	r.once.Do(func() {
		cfg := w.cfg
		instrument(&cfg)
		res, err := Run(w.mode, w.app, cfg)
		if err == nil {
			err = checkReference(w, res, cfg)
		}
		r.out, r.err = outcome{label: "reference", res: res, cfg: cfg}, err
	})
	if r.err != nil {
		t.Fatalf("%s reference: %v", w.name, r.err)
	}
	return r.out
}

// checkReference pins what makes a row's reference worth comparing
// against: the observers recorded, the layers the row arms did their work,
// and the layers it leaves off stayed silent.
func checkReference(w world, res *Result, cfg Config) error {
	if cfg.Ledger.Len() == 0 {
		return errors.New("ledger attached but recorded nothing")
	}
	if len(cfg.Series.Track(w.mode.String()+"/"+w.app.Name).Points()) == 0 {
		return errors.New("series attached but sampled nothing")
	}
	names := []string{"memctrl/demand_reads", "dram/reads", "cache/l3_hits", "ksm/pages_scanned"}
	if w.mode == PageForge {
		names = append(names, "pageforge/lines_fetched", "pageforge/batches")
	}
	for _, name := range names {
		if _, ok := res.Metrics.Counters[name]; !ok {
			return fmt.Errorf("snapshot missing %s", name)
		}
	}
	if res.Footprint.Savings() <= 0 {
		return errors.New("the world saved no memory: nothing was exercised")
	}
	if !cfg.Faults.Enabled() && (res.ScrubLines != 0 || res.ECCUncorrectable != 0 || res.Degraded) {
		return fmt.Errorf("zero fault config produced RAS activity: scrub %d, UEs %d, degraded %v",
			res.ScrubLines, res.ECCUncorrectable, res.Degraded)
	}
	if cfg.Pressure.Enabled && res.Metrics.Counters["pressure/alloc_stalls"] == 0 {
		return errors.New("overcommitted storm never stalled an allocation")
	}
	if w.check != nil {
		return w.check(res)
	}
	return nil
}

// assertEquivalent requires a cell's run to reproduce the reference:
// Result, and whichever of series points and ledger events it observed.
// A crash cell's Crash report is checked against crash and zeroed, and its
// ledger compared without the restored markers, past which sequence
// numbers shift.
func assertEquivalent(t *testing.T, w world, ref, got outcome, crash *wantCrash) {
	t.Helper()
	want, res := *ref.res, *got.res
	refEvents, events := ref.cfg.Ledger.Events(), got.cfg.Ledger.Events()
	if crash != nil {
		crash.check(t, res.Crash)
		want.Crash, res.Crash = CrashReport{}, CrashReport{}
		refEvents = withoutRestores(refEvents)
		n := len(events)
		events = withoutRestores(events)
		// A restore rewinds the ledger past the markers of earlier crashes
		// replayed over, so one to crashes markers survive.
		if markers := n - len(events); got.cfg.Ledger != nil &&
			(markers > crash.crashes || (markers == 0) != (crash.crashes == 0)) {
			t.Fatalf("%s: ledger holds %d restored markers after %d crashes", got.label, markers, crash.crashes)
		}
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("%s: Result diverged from the reference\ngot:  %+v\nwant: %+v", got.label, res, want)
	}
	if got.cfg.Series != nil {
		track := w.mode.String() + "/" + w.app.Name
		gp, rp := got.cfg.Series.Track(track).Points(), ref.cfg.Series.Track(track).Points()
		if !reflect.DeepEqual(gp, rp) {
			t.Fatalf("%s: series points diverged (%d vs %d reference)", got.label, len(gp), len(rp))
		}
	}
	if got.cfg.Ledger != nil && !reflect.DeepEqual(events, refEvents) {
		t.Fatalf("%s: ledger events diverged (%d vs %d reference)", got.label, len(events), len(refEvents))
	}
}

// withoutRestores drops the ledger's restored markers and zeroes every
// sequence number.
func withoutRestores(evs []obs.LedgerEvent) []obs.LedgerEvent {
	out := make([]obs.LedgerEvent, 0, len(evs))
	for _, e := range evs {
		if e.Kind == obs.LKRestored {
			continue
		}
		e.Seq = 0
		out = append(out, e)
	}
	return out
}

// instrument attaches a fresh ledger and series to a config and returns the
// ledger for inspection (the series track is reachable through cfg.Series).
func instrument(cfg *Config) *obs.Ledger {
	cfg.Ledger = obs.NewLedger(0)
	cfg.Series = obs.NewSeries(0)
	return cfg.Ledger
}

// batch runs cfg through Run.
func batch(t *testing.T, w world, cfg Config) []outcome {
	t.Helper()
	res, err := Run(w.mode, w.app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []outcome{{label: "batch", res: res, cfg: cfg}}
}

// streamed steps a Runtime tick by tick, injecting each event of cfg's
// schedule live just before the runtime reaches its pass, instead of
// handing the schedule to Start.
func streamed(t *testing.T, w world, cfg Config) []outcome {
	t.Helper()
	sched := slices.Clone(cfg.Events)
	slices.SortStableFunc(sched, func(a, b Event) int { return a.Pass - b.Pass })
	cfg.Events = nil
	r := NewRuntime(w.mode, w.app, cfg)
	if err := r.Start(); err != nil {
		t.Fatalf("stream start: %v", err)
	}
	i := 0
	for done := false; !done; {
		for i < len(sched) && !r.Done() && sched[i].Pass <= r.Pass() {
			if err := r.Inject(sched[i]); err != nil {
				t.Fatalf("inject %v at pass %d: %v", sched[i].Kind, r.Pass(), err)
			}
			i++
		}
		var err error
		if done, err = r.Step(); err != nil {
			t.Fatalf("stream step: %v", err)
		}
	}
	if i < len(sched) {
		t.Fatalf("run converged before event %d (%v at pass %d) could be injected; retune the schedule",
			i, sched[i].Kind, sched[i].Pass)
	}
	return []outcome{{label: "stream", res: r.Result(), cfg: cfg}}
}

// snapshotRestore steps a donor runtime and snapshots it after passes 2
// (the phase flip of the live schedule still pending) and 4 (every event
// applied). Each blob restores into a fresh runtime built from the same
// config with its own observers, which must resume at that pass and drain
// to the reference; so must the donor, which the snapshots leave
// untouched. The blob's applied-event cursor is what lets a fresh runtime
// replay the schedule. No verifier: a fresh runtime's shadow model would
// have no history of the churned contents (see Runtime.Restore).
func snapshotRestore(t *testing.T, w world, cfg Config) []outcome {
	t.Helper()
	donor := NewRuntime(w.mode, w.app, cfg)
	if err := donor.Start(); err != nil {
		t.Fatal(err)
	}
	var out []outcome
	for _, n := range []int{2, 4} {
		for donor.Pass() < n {
			if done, err := donor.Step(); err != nil || done {
				t.Fatalf("donor step: done=%v err=%v before pass %d", done, err, n)
			}
		}
		blob, err := donor.Snapshot()
		if err != nil {
			t.Fatalf("snapshot at pass %d: %v", n, err)
		}
		fresh := cfg
		instrument(&fresh)
		r := NewRuntime(w.mode, w.app, fresh)
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		if err := r.Restore(blob); err != nil {
			t.Fatalf("restore at pass %d: %v", n, err)
		}
		if r.Pass() != n {
			t.Fatalf("restored runtime resumes at pass %d, want %d", r.Pass(), n)
		}
		res, err := r.Drain()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, outcome{label: fmt.Sprintf("restored at pass %d", n), res: res, cfg: fresh})
	}
	res, err := donor.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return append(out, outcome{label: "donor", res: res, cfg: cfg})
}

// The invariants, each a test over the table's cells.

// TestMetricsSnapshotDeterminism: a run is a function of its config, down
// to the full metrics snapshot.
func TestMetricsSnapshotDeterminism(t *testing.T) {
	equivalence(t, cell{"", "PageForge", "repeat"})
}

// TestPressureDeterminism: two same-seed storm runs agree, transitions and
// stall counts included.
func TestPressureDeterminism(t *testing.T) {
	equivalence(t, cell{"", "PageForge-storm", "repeat"})
}

// TestFaultConfigZeroIsIdentical: a seeded fault config with zero rates
// leaves a PageForge run untouched, and a world with no fault config shows
// no RAS activity (the reference check).
func TestFaultConfigZeroIsIdentical(t *testing.T) {
	equivalence(t, cell{"", "PageForge", "layers-off"})
}

// TestPressureOffBitIdentical: a populated pressure config that is
// switched off leaves the run untouched.
func TestPressureOffBitIdentical(t *testing.T) {
	equivalence(t, cell{"", "KSM", "layers-off"})
}

// TestTraceDisabledBitIdentical: attaching a tracer never perturbs a run.
func TestTraceDisabledBitIdentical(t *testing.T) {
	equivalence(t, cell{"", "PageForge", "traced"})
}

// TestTracePressureBitIdentical: nor does it in the overcommit storm,
// whose bursts, balloons and ladder transitions all emit trace events.
func TestTracePressureBitIdentical(t *testing.T) {
	equivalence(t, cell{"", "KSM-storm", "traced"})
}

// TestShardedWorkerCountBitIdentical: the sharded scan's worker count is
// invisible. Run with -race to also certify the fan-out is clean.
func TestShardedWorkerCountBitIdentical(t *testing.T) {
	equivalence(t, cell{"", "KSM-sharded", "workers"})
}

// TestProvenanceBitIdentical: the ledger and the series never perturb a
// run, in any world.
func TestProvenanceBitIdentical(t *testing.T) {
	equivalence(t,
		cell{"KSM", "KSM", "bare"},
		cell{"KSM-sharded", "KSM-sharded", "bare"},
		cell{"PageForge", "PageForge", "bare"},
		cell{"PageForge-faults", "PageForge-faultstorm", "bare"},
		cell{"KSM-storm", "KSM-storm", "bare"},
		cell{"PageForge-crash", "PageForge", "crash-bare"},
		cell{"PageForge-repromote", "PageForge-repromote", "bare"},
	)
}

// TestStreamEquivalence: a schedule injected live into a stepped Runtime
// equals the same schedule carried in Config.Events.
func TestStreamEquivalence(t *testing.T) {
	equivalence(t,
		cell{"KSM", "KSM", "stream"},
		cell{"KSM-sharded", "KSM-sharded", "stream"},
		cell{"PageForge", "PageForge", "stream"},
		cell{"PageForge-faultstorm", "PageForge-faultstorm", "stream"},
		cell{"KSM-storm", "KSM-storm", "stream"},
		cell{"PageForge-crash", "PageForge", "crash-stream"},
	)
}

// TestCheckpointingIsPure: capturing checkpoints without a crash never
// perturbs a run.
func TestCheckpointingIsPure(t *testing.T) {
	equivalence(t,
		cell{"KSM", "KSM", "checkpoints"},
		cell{"PageForge", "PageForge", "checkpoints"},
	)
}

// TestCrashRestoreResultIdentity: checkpoint, crash, restore and resume
// yield the uninterrupted Result, across engines, index shapes and an
// armed fault model.
func TestCrashRestoreResultIdentity(t *testing.T) {
	equivalence(t,
		cell{"KSM", "KSM", "crash-bare"},
		cell{"KSM-sharded", "KSM-sharded", "crash"},
		cell{"PageForge", "PageForge", "crash-bare"},
		cell{"PageForge-faults", "PageForge-faultstorm", "crash"},
	)
}

// TestCrashRoundTripWithProvenance: a crashed run also reproduces the
// uninterrupted run's series points and ledger events.
func TestCrashRoundTripWithProvenance(t *testing.T) {
	equivalence(t,
		cell{"KSM", "KSM", "crash"},
		cell{"PageForge", "PageForge", "crash"},
	)
}

// TestCrashWithZeroCheckpoints: with no periodic cadence a crash restores
// the boot checkpoint and the whole convergence phase replays.
func TestCrashWithZeroCheckpoints(t *testing.T) {
	equivalence(t, cell{"", "PageForge", "crash-boot"})
}

// TestBackToBackCrashes: two crashes at one pass restore the same
// checkpoint twice.
func TestBackToBackCrashes(t *testing.T) {
	equivalence(t, cell{"", "KSM", "crash-twice"})
}

// TestCrashDuringBalloonStorm: a crash mid-burst rewinds the balloon, the
// ladder, the stall accounting and the half-written burst region too.
func TestCrashDuringBalloonStorm(t *testing.T) {
	equivalence(t,
		cell{"KSM", "KSM-storm", "crash"},
		cell{"PageForge", "PageForge-storm", "crash"},
	)
}

// TestSnapshotRestoreFreshRuntime: N passes, a snapshot restored into a
// fresh runtime and M more passes equal N+M uninterrupted passes.
func TestSnapshotRestoreFreshRuntime(t *testing.T) {
	equivalence(t,
		cell{"KSM", "KSM", "snapshot"},
		cell{"PageForge", "PageForge", "snapshot"},
	)
}
