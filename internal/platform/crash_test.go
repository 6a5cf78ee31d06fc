package platform

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/tailbench"
)

// crashTestConfig is fastConfig shrunk further: crash tests run every
// scenario twice (crashed and uninterrupted).
func crashTestConfig() Config {
	cfg := fastConfig()
	cfg.ConvergePasses = 8
	cfg.MeasureIntervals = 4
	return cfg
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

// withoutCrashes returns the event schedule minus its EvCrash entries: the
// uninterrupted reference run of a crash test.
func withoutCrashes(events []Event) []Event {
	var out []Event
	for _, e := range events {
		if e.Kind != EvCrash {
			out = append(out, e)
		}
	}
	return out
}

// assertCrashIdentity runs cfg as given (crash machinery armed) and once
// more with the machinery stripped, and requires the two Results to be
// deeply equal once the Crash report — the one section documenting the
// recovery work itself — is zeroed. This is the tentpole invariant:
// checkpoint → crash → restore → resume must be indistinguishable from
// never crashing. It returns the crashed run's report for further checks.
func assertCrashIdentity(t *testing.T, mode Mode, app tailbench.Profile, cfg Config) CrashReport {
	t.Helper()
	crashed, err := Run(mode, app, cfg)
	if err != nil {
		t.Fatalf("crashed run failed: %v", err)
	}
	plain := cfg
	plain.Events = withoutCrashes(cfg.Events)
	plain.CheckpointEvery = 0
	want, err := Run(mode, app, plain)
	if err != nil {
		t.Fatalf("uninterrupted run failed: %v", err)
	}
	rep := crashed.Crash
	crashed.Crash = CrashReport{}
	want.Crash = CrashReport{}
	if !reflect.DeepEqual(crashed, want) {
		t.Fatalf("crashed run diverged from uninterrupted run\ncrashed: %+v\nplain:   %+v", crashed, want)
	}
	return rep
}

// TestCrashRestoreResultIdentity is the core bit-identity proof across
// engine modes and index shapes, including a run with an armed fault model
// (RNG streams and tracker state must survive the restore too).
func TestCrashRestoreResultIdentity(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		mode Mode
		tune func(*Config)
	}{
		{"KSM", KSM, nil},
		{"KSM-sharded", KSM, func(c *Config) { c.ShardBits = 2; c.ShardWorkers = 2 }},
		{"PageForge", PageForge, nil},
		{"PageForge-faults", PageForge, func(c *Config) {
			c.Faults = faults.Config{Seed: 7, TransientPerRead: 0.001}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := crashTestConfig()
			if tc.tune != nil {
				tc.tune(&cfg)
			}
			cfg.CheckpointEvery = 2
			crashAt(&cfg, 2)
			rep := assertCrashIdentity(t, tc.mode, fastApp("img_dnn"), cfg)
			if rep.Crashes != 1 || rep.Restores != 1 {
				t.Fatalf("crashes=%d restores=%d, want 1/1", rep.Crashes, rep.Restores)
			}
			if rep.Checkpoints == 0 {
				t.Fatal("no checkpoints captured")
			}
			if rep.ReplayedPasses != 1 {
				// Checkpoint at pass 1, crash at pass 2: exactly one pass lost.
				t.Fatalf("ReplayedPasses = %d, want 1", rep.ReplayedPasses)
			}
			if rep.StableVerified == 0 || rep.RecoveryCycles == 0 {
				t.Fatalf("recovery did no verification work: %+v", rep)
			}
		})
	}
}

// TestCheckpointingIsPure: capturing checkpoints without ever crashing must
// not perturb the run at all.
func TestCheckpointingIsPure(t *testing.T) {
	t.Parallel()
	for _, mode := range []Mode{KSM, PageForge} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := crashTestConfig()
			cfg.CheckpointEvery = 2
			rep := assertCrashIdentity(t, mode, fastApp("img_dnn"), cfg)
			if rep.Crashes != 0 || rep.Restores != 0 {
				t.Fatalf("no crashes scheduled but crashes=%d restores=%d", rep.Crashes, rep.Restores)
			}
			if rep.Checkpoints < 2 {
				t.Fatalf("Checkpoints = %d, want >= 2 (boot + periodic)", rep.Checkpoints)
			}
		})
	}
}

// TestCrashWithZeroCheckpoints: with no periodic cadence the only restore
// target is the boot checkpoint — the whole convergence phase replays.
func TestCrashWithZeroCheckpoints(t *testing.T) {
	t.Parallel()
	cfg := crashTestConfig()
	crashAt(&cfg, 2)
	rep := assertCrashIdentity(t, PageForge, fastApp("img_dnn"), cfg)
	if rep.Crashes != 1 || rep.Restores != 1 {
		t.Fatalf("crashes=%d restores=%d, want 1/1", rep.Crashes, rep.Restores)
	}
	if rep.Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d, want 1 (boot only)", rep.Checkpoints)
	}
	// Boot checkpoint is pass -1; crash at pass 2 loses passes 0..2.
	if rep.ReplayedPasses != 3 {
		t.Fatalf("ReplayedPasses = %d, want 3", rep.ReplayedPasses)
	}
	if rep.RemergedPages == 0 {
		t.Fatal("boot restore destroyed no merges — crash landed after nothing happened")
	}
}

// TestBackToBackCrashes: two crashes at the same pass exercise restoring
// the same checkpoint twice within one re-arm window.
func TestBackToBackCrashes(t *testing.T) {
	t.Parallel()
	cfg := crashTestConfig()
	cfg.CheckpointEvery = 2
	crashAt(&cfg, 2, 2)
	rep := assertCrashIdentity(t, KSM, fastApp("img_dnn"), cfg)
	if rep.Crashes != 2 || rep.Restores != 2 {
		t.Fatalf("crashes=%d restores=%d, want 2/2", rep.Crashes, rep.Restores)
	}
	if rep.ReplayedPasses != 2 {
		t.Fatalf("ReplayedPasses = %d, want 2 (one pass per crash)", rep.ReplayedPasses)
	}
}

// TestCrashDuringBalloonStorm crashes in the middle of the overcommit
// burst: the restore must rewind the balloon, the ladder, the stall
// accounting, and the half-written burst region along with everything else.
func TestCrashDuringBalloonStorm(t *testing.T) {
	t.Parallel()
	for _, mode := range []Mode{KSM, PageForge} {
		t.Run(mode.String(), func(t *testing.T) {
			app, cfg := stormConfig(7)
			cfg.CheckpointEvery = 2
			crashAt(&cfg, 2) // mid-burst (storm runs passes 1-3)
			rep := assertCrashIdentity(t, mode, app, cfg)
			if rep.Crashes != 1 {
				t.Fatalf("Crashes = %d, want 1", rep.Crashes)
			}
		})
	}
}
