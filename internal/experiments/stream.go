package experiments

import (
	"fmt"
	"reflect"

	"repro/internal/obs"
	"repro/internal/platform"
)

// The stream experiment (a service-runtime extension beyond the paper's
// evaluation): batch ≡ streaming equivalence over the tick-driven runtime.
// Each world shape runs twice — once through batch platform.Run with a
// config-scheduled live-event stream (VM spawn, VM kill, phase flip, host
// crash), and once through a manually stepped platform.Runtime with the
// same events Injected live just before their passes. The headline verdict
// is bit-identity: Result, per-pass series points, and provenance-ledger
// event streams must all be deeply equal, so a long-running streaming
// deployment of the simulator produces exactly the numbers the batch
// experiments report.

// StreamRow is one world shape's equivalence verdict.
type StreamRow struct {
	// World names the shape; Mode is the dedup engine under test.
	World string
	Mode  string

	// Events is the live-event schedule length (crash events included);
	// Ticks the total runtime steps (convergence passes + work intervals).
	Events int
	Ticks  int

	// ConvergedPasses, SavingsPct, SeriesPoints, and LedgerEvents summarize
	// the run both sides produced.
	ConvergedPasses int
	SavingsPct      float64
	SeriesPoints    int
	LedgerEvents    int

	// Identical is the tentpole verdict: Result, series, and ledger all
	// deeply equal between the batch and streamed runs.
	Identical bool
}

// StreamResult is the world sweep.
type StreamResult struct {
	Rows []StreamRow
}

// streamSchedule is the base live-event script: a spawn, a kill, and a
// phase flip, front-loaded so every event lands before convergence.
func streamSchedule() []platform.Event {
	return []platform.Event{
		{Pass: 1, Kind: platform.EvVMSpawn},
		{Pass: 2, Kind: platform.EvVMKill, VM: 1},
		{Pass: 3, Kind: platform.EvPhaseChange, Frac: 0.4},
	}
}

// streamPoint runs one world both ways and cross-checks. A divergence is an
// error, not a row: equivalence is a correctness property of the runtime,
// not a measured quantity.
func streamPoint(seed uint64, world string, mode platform.Mode,
	mutate func(*platform.Config), sched []platform.Event) (StreamRow, error) {

	app, base := crashWorld()
	base.Seed = seed
	if mutate != nil {
		mutate(&base)
	}

	batchCfg := base
	batchCfg.Events = append([]platform.Event(nil), sched...)
	batchCfg.Ledger = obs.NewLedger(0)
	batchCfg.Series = obs.NewSeries(0)
	batch, err := platform.Run(mode, app, batchCfg)
	if err != nil {
		return StreamRow{}, fmt.Errorf("experiments: stream world %s (batch): %w", world, err)
	}

	streamCfg := base
	streamCfg.Ledger = obs.NewLedger(0)
	streamCfg.Series = obs.NewSeries(0)
	rt := platform.NewRuntime(mode, app, streamCfg)
	if err := rt.Start(); err != nil {
		return StreamRow{}, fmt.Errorf("experiments: stream world %s: %w", world, err)
	}
	ticks, i := 0, 0
	for {
		for i < len(sched) && !rt.Done() && sched[i].Pass <= rt.Pass() {
			if err := rt.Inject(sched[i]); err != nil {
				return StreamRow{}, fmt.Errorf("experiments: stream world %s: inject %v at pass %d: %w",
					world, sched[i].Kind, rt.Pass(), err)
			}
			i++
		}
		done, err := rt.Step()
		if err != nil {
			return StreamRow{}, fmt.Errorf("experiments: stream world %s (streamed): %w", world, err)
		}
		ticks++
		if done {
			break
		}
	}
	if i < len(sched) {
		return StreamRow{}, fmt.Errorf("experiments: stream world %s: converged before event %d (%v at pass %d) could be injected",
			world, i, sched[i].Kind, sched[i].Pass)
	}
	stream := rt.Result()

	name := mode.String() + "/" + app.Name
	bp := batchCfg.Series.Track(name).Points()
	sp := streamCfg.Series.Track(name).Points()
	identical := reflect.DeepEqual(batch, stream) &&
		reflect.DeepEqual(batchCfg.Ledger.Events(), streamCfg.Ledger.Events()) &&
		reflect.DeepEqual(bp, sp)
	if !identical {
		return StreamRow{}, fmt.Errorf("experiments: stream world %s: streamed run diverged from batch run", world)
	}

	return StreamRow{
		World:           world,
		Mode:            mode.String(),
		Events:          len(sched),
		Ticks:           ticks,
		ConvergedPasses: stream.ConvergedPasses,
		SavingsPct:      stream.Footprint.Savings() * 100,
		SeriesPoints:    len(sp),
		LedgerEvents:    len(streamCfg.Ledger.Events()),
		Identical:       identical,
	}, nil
}

// Stream runs the batch ≡ streaming equivalence sweep over every world
// shape, one point per world on the suite's worker pool: both engines, the
// sharded index, and a crash-with-recovery world whose host crash is itself
// delivered as a live event.
func Stream(s *Suite) (*StreamResult, error) {
	crashSched := []platform.Event{
		{Pass: 2, Kind: platform.EvVMKill, VM: 1},
		{Pass: 3, Kind: platform.EvVMSpawn},
		{Pass: 4, Kind: platform.EvCrash},
	}
	worlds := []struct {
		name   string
		mode   platform.Mode
		mutate func(*platform.Config)
		sched  []platform.Event
	}{
		{"ksm", platform.KSM, nil, streamSchedule()},
		{"ksm-sharded", platform.KSM, func(cfg *platform.Config) {
			cfg.ShardBits = 2
			cfg.ShardWorkers = 3
		}, streamSchedule()},
		{"pageforge", platform.PageForge, nil, streamSchedule()},
		{"pageforge-crash", platform.PageForge, func(cfg *platform.Config) {
			cfg.CheckpointEvery = 2
		}, crashSched},
	}
	res := &StreamResult{Rows: make([]StreamRow, len(worlds))}
	err := s.each(len(worlds), func(i int) (err error) {
		w := worlds[i]
		res.Rows[i], err = streamPoint(s.Cfg.Seed, w.name, w.mode, w.mutate, w.sched)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the sweep as a table.
func (r *StreamResult) String() string {
	t := &table{
		title: "Stream: batch Run vs live-event streamed Runtime, per world shape",
		header: []string{"world", "mode", "events", "ticks", "passes",
			"savings", "series", "ledger", "identical"},
	}
	for _, row := range r.Rows {
		t.add(
			row.World,
			row.Mode,
			fmt.Sprintf("%d", row.Events),
			fmt.Sprintf("%d", row.Ticks),
			fmt.Sprintf("%d", row.ConvergedPasses),
			f1(row.SavingsPct)+"%",
			fmt.Sprintf("%d", row.SeriesPoints),
			fmt.Sprintf("%d", row.LedgerEvents),
			fmt.Sprintf("%v", row.Identical),
		)
	}
	t.notes = append(t.notes,
		"each world runs twice: batch Run with a config-scheduled event stream",
		"(spawn/kill/phase-flip, and a host crash in the crash world), and a",
		"manually stepped Runtime with the same events Injected live. 'identical'",
		"= Result, per-pass series points, and provenance-ledger event streams",
		"are all deeply equal — streaming deployments reproduce batch numbers.")
	return t.String()
}
