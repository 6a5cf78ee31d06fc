package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/tailbench"
)

// TestParallelMatchesSequential is the determinism audit: the same fast
// suite run strictly sequentially and with a 4-way worker pool must
// produce bit-identical structured results for every (mode, app) key —
// every run owns its image, cache hierarchy, DRAM model, and RNG streams,
// so scheduling must not leak into the results.
func TestParallelMatchesSequential(t *testing.T) {
	build := func(parallelism int) *Suite {
		s := fastSuiteOneApp(t, "img_dnn", "silo")
		s.Parallelism = parallelism
		return s
	}
	seq := build(1)
	if err := seq.RunAll(); err != nil {
		t.Fatal(err)
	}
	par := build(4)
	if err := par.RunAll(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range AllModes() {
		for _, app := range seq.Apps {
			a, err := seq.Result(mode, app)
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.Result(mode, app)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s/%s: parallel result diverged from sequential:\nseq: %+v\npar: %+v",
					mode, app.Name, a, b)
			}
		}
	}
}

// TestStudiesParallelMatchSequential extends the audit to the studies'
// own points: each grid study run on a one-app fast suite at Parallelism 1
// and 4 yields deeply equal artifacts, values and text alike, so the
// points share no mutable state and rows land in grid order. verify,
// pressure and crash run smaller grids through their unexported entries,
// and the app's image is shrunk to 4 VMs of 100 pages, to keep the test short.
// verify's two scenarios are one faulted and one fault-free, so both
// regimes are held to the sequential run.
func TestStudiesParallelMatchSequential(t *testing.T) {
	grid := func(name string, run func(*Suite) (fmt.Stringer, error)) Experiment {
		return Experiment{Name: name, Run: func(s *Suite) ([]Artifact, error) {
			r, err := run(s)
			if err != nil {
				return nil, err
			}
			return []Artifact{{Key: name, Value: r, Text: r.String()}}, nil
		}}
	}
	studies := []Experiment{
		grid("verify", func(s *Suite) (fmt.Stringer, error) { return verify(s, 2) }),
		grid("pressure", func(s *Suite) (fmt.Stringer, error) { return pressureSweep(s, []float64{1, 2}) }),
		grid("crash", func(s *Suite) (fmt.Stringer, error) { return crashSweep(s, []int{1, 2}, []int{0, 2}) }),
	}
	for _, name := range []string{"sweep", "timeline", "satori", "ras", "stream", "efficiency"} {
		set, err := Registry().Select(name)
		if err != nil {
			t.Fatal(err)
		}
		studies = append(studies, set...)
	}
	for _, e := range studies {
		var arts [2][]Artifact
		for k, par := range []int{1, 4} {
			s := fastSuiteOneApp(t, "img_dnn")
			s.Apps[0].PagesPerVM, s.Cfg.VMs = 100, 4
			s.Parallelism = par
			var err error
			if arts[k], err = e.Run(s); err != nil {
				t.Fatalf("%s at parallelism %d: %v", e.Name, par, err)
			}
		}
		if !reflect.DeepEqual(arts[0], arts[1]) {
			t.Errorf("%s: artifacts at parallelism 4 differ from parallelism 1:\n%+v\n%+v", e.Name, arts[1], arts[0])
		}
		if v, ok := arts[0][0].Value.(*VerifyResult); ok && (v.Faulted.Scenarios == 0 || v.FaultFree.Scenarios == 0) {
			t.Errorf("verify ran %d faulted and %d fault-free scenarios, want both regimes", v.Faulted.Scenarios, v.FaultFree.Scenarios)
		}
	}
}

// TestSuiteResultSingleflight hammers Result from many goroutines for the
// same and different keys and asserts exactly one platform run per key,
// with every caller receiving the same result pointer.
func TestSuiteResultSingleflight(t *testing.T) {
	s := NewFastSuite()
	var mu sync.Mutex
	runs := map[string]int{}
	s.runFn = func(mode platform.Mode, app tailbench.Profile, _ platform.Config) (*platform.Result, error) {
		key := fmt.Sprintf("%s/%s", mode, app.Name)
		mu.Lock()
		runs[key]++
		mu.Unlock()
		time.Sleep(2 * time.Millisecond) // widen the race window
		return &platform.Result{Mode: mode, App: app}, nil
	}

	keys := 0
	got := make(map[string]map[*platform.Result]bool)
	var gotMu sync.Mutex
	var wg sync.WaitGroup
	for _, mode := range AllModes() {
		for _, app := range s.Apps {
			keys++
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(mode platform.Mode, app tailbench.Profile) {
					defer wg.Done()
					r, err := s.Result(mode, app)
					if err != nil {
						t.Error(err)
						return
					}
					key := fmt.Sprintf("%s/%s", mode, app.Name)
					gotMu.Lock()
					if got[key] == nil {
						got[key] = make(map[*platform.Result]bool)
					}
					got[key][r] = true
					gotMu.Unlock()
				}(mode, app)
			}
		}
	}
	wg.Wait()

	if len(runs) != keys {
		t.Fatalf("%d keys executed, want %d", len(runs), keys)
	}
	for key, n := range runs {
		if n != 1 {
			t.Fatalf("%s: %d executions, want exactly 1", key, n)
		}
		if len(got[key]) != 1 {
			t.Fatalf("%s: callers saw %d distinct results, want 1 shared", key, len(got[key]))
		}
	}
}

// TestSuiteResultSharesErrors verifies a failing run is also executed once
// and its error shared by every caller.
func TestSuiteResultSharesErrors(t *testing.T) {
	s := NewFastSuite()
	boom := errors.New("boom")
	calls := 0
	s.runFn = func(platform.Mode, tailbench.Profile, platform.Config) (*platform.Result, error) {
		calls++
		return nil, boom
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Result(platform.KSM, s.Apps[0]); !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want wrapped boom", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("failing run executed %d times, want 1 (cached error)", calls)
	}
}

// TestRunAllBoundsWorkers checks the suite's one worker pool never runs
// more than Parallelism points at once, both for the (mode × app) runs
// RunAll submits and for a study's points submitted through each.
func TestRunAllBoundsWorkers(t *testing.T) {
	s := NewFastSuite()
	s.Parallelism = 3
	var mu sync.Mutex
	cur, peak := 0, 0
	point := func() {
		mu.Lock()
		cur++
		peak = max(peak, cur)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		cur--
		mu.Unlock()
	}
	s.runFn = func(mode platform.Mode, app tailbench.Profile, _ platform.Config) (*platform.Result, error) {
		point()
		return &platform.Result{Mode: mode, App: app}, nil
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"RunAll", func() error { return s.RunAll() }},
		{"each", func() error { return s.each(20, func(int) error { point(); return nil }) }},
	} {
		peak = 0
		if err := c.run(); err != nil {
			t.Fatal(err)
		}
		if peak > 3 {
			t.Fatalf("%s: worker pool peaked at %d concurrent points, bound is 3", c.name, peak)
		}
		if peak < 2 {
			t.Fatalf("%s: worker pool peaked at %d concurrent points, expected overlap", c.name, peak)
		}
	}
}

// TestEachReportsLowestIndexFailure pins that the pool runs every point and
// returns the lowest-index failure whatever order the points finish in.
func TestEachReportsLowestIndexFailure(t *testing.T) {
	s := NewFastSuite()
	s.Parallelism = 4
	var ran atomic.Int64
	err := s.each(40, func(i int) error {
		ran.Add(1)
		if i%7 == 5 {
			time.Sleep(time.Duration(40-i) * 100 * time.Microsecond) // the lowest failure finishes last
			return fmt.Errorf("point %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "point 5" || ran.Load() != 40 {
		t.Fatalf("each: err %v after %d points, want point 5 after 40", err, ran.Load())
	}
}

// TestProgressReporter exercises the reporter through a parallel RunAll
// and the summary rendering.
func TestProgressReporter(t *testing.T) {
	var buf strings.Builder
	s := NewFastSuite()
	s.Apps = s.Apps[:2]
	s.Parallelism = 4
	rep := NewProgressReporter(&buf)
	s.Reporter = rep
	s.runFn = func(mode platform.Mode, app tailbench.Profile, _ platform.Config) (*platform.Result, error) {
		return &platform.Result{Mode: mode, App: app}, nil
	}
	if err := s.RunAll(platform.KSM); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "run  KSM") || !strings.Contains(out, "done KSM") {
		t.Fatalf("progress lines missing:\n%s", out)
	}
	sum := rep.Summary()
	if !strings.Contains(sum, "2 runs") || !strings.Contains(sum, "KSM") {
		t.Fatalf("summary missing runs:\n%s", sum)
	}
}

// TestTableWideRow guards the renderer against rows wider than the header
// (it used to index widths out of range and panic).
func TestTableWideRow(t *testing.T) {
	tb := &table{
		title:  "wide",
		header: []string{"A", "B"},
	}
	tb.add("1", "2", "3-overflows-header")
	tb.add("only-one")
	out := tb.String()
	if !strings.Contains(out, "3-overflows-header") {
		t.Fatalf("overflow cell dropped:\n%s", out)
	}
}
