package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/platform"
)

// AllModes is the paper's full configuration matrix.
func AllModes() []platform.Mode {
	return []platform.Mode{platform.Baseline, platform.KSM, platform.PageForge}
}

// RunAll executes the (mode × app) matrix on the suite's worker pool and
// returns the first failing run's error in (mode, app) order. With no
// modes given it runs all three configurations. Results land in the
// suite's cache, so experiments consuming them afterwards are pure table
// rendering; runs already cached (or requested concurrently by another
// experiment) are not duplicated.
func (s *Suite) RunAll(modes ...platform.Mode) error {
	if len(modes) == 0 {
		modes = AllModes()
	}
	apps := len(s.Apps)
	return s.each(len(modes)*apps, func(i int) error {
		_, err := s.Result(modes[i/apps], s.Apps[i%apps])
		return err
	})
}

// each is the suite's one worker pool: it runs point(i) for every i in
// [0, n) on min(Parallelism, n) goroutines (Parallelism 0 means
// GOMAXPROCS) and returns the lowest-index failure, so the error does not
// depend on scheduling. Every point runs, failing or not. Points must not
// call each themselves, so Parallelism stays a hard bound.
func (s *Suite) each(n int, point func(i int) error) error {
	workers := s.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = point(i)
			}
		}()
	}
	wg.Wait()
	return firstErr(errs)
}

// firstErr returns the lowest-index non-nil error.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Reporter observes suite run lifecycle events. Implementations must be
// safe for concurrent use: with a parallel suite, runs start and finish
// from multiple goroutines.
type Reporter interface {
	RunStarted(mode platform.Mode, app string)
	RunFinished(mode platform.Mode, app string, wall time.Duration, err error)
}

// runRecord is one finished run's wall-clock entry.
type runRecord struct {
	mode platform.Mode
	app  string
	wall time.Duration
	err  error
}

// ProgressReporter streams one line per run start/finish to W and collects
// wall-clock durations for a post-hoc summary table. Safe for concurrent
// use.
type ProgressReporter struct {
	W io.Writer

	mu      sync.Mutex
	started time.Time
	records []runRecord
}

// NewProgressReporter builds a reporter writing progress lines to w.
func NewProgressReporter(w io.Writer) *ProgressReporter {
	return &ProgressReporter{W: w}
}

// RunStarted implements Reporter.
func (p *ProgressReporter) RunStarted(mode platform.Mode, app string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started.IsZero() {
		p.started = time.Now()
	}
	if p.W != nil {
		fmt.Fprintf(p.W, "run  %-9s %-9s ...\n", mode, app)
	}
}

// RunFinished implements Reporter.
func (p *ProgressReporter) RunFinished(mode platform.Mode, app string, wall time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.records = append(p.records, runRecord{mode: mode, app: app, wall: wall, err: err})
	if p.W == nil {
		return
	}
	if err != nil {
		fmt.Fprintf(p.W, "FAIL %-9s %-9s %8.2fs  %v\n", mode, app, wall.Seconds(), err)
		return
	}
	fmt.Fprintf(p.W, "done %-9s %-9s %8.2fs\n", mode, app, wall.Seconds())
}

// Summary renders the collected runs as a duration table, slowest first,
// with the cumulative simulation time against the elapsed wall clock (the
// gap is the parallel speedup).
func (p *ProgressReporter) Summary() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := &table{
		title:  "Suite runs by wall-clock duration",
		header: []string{"Mode", "App", "Wall", "Status"},
	}
	recs := make([]runRecord, len(p.records))
	copy(recs, p.records)
	sort.Slice(recs, func(i, j int) bool { return recs[i].wall > recs[j].wall })
	var total time.Duration
	for _, r := range recs {
		status := "ok"
		if r.err != nil {
			status = "FAIL"
		}
		t.add(r.mode.String(), r.app, fmt.Sprintf("%.2fs", r.wall.Seconds()), status)
		total += r.wall
	}
	elapsed := time.Duration(0)
	if !p.started.IsZero() {
		elapsed = time.Since(p.started)
	}
	t.notes = append(t.notes, fmt.Sprintf("%d runs, %.2fs simulation time in %.2fs elapsed",
		len(recs), total.Seconds(), elapsed.Seconds()))
	return t.String()
}
