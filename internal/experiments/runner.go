package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/platform"
	"repro/internal/tailbench"
)

// AllModes is the paper's full configuration matrix.
func AllModes() []platform.Mode {
	return []platform.Mode{platform.Baseline, platform.KSM, platform.PageForge}
}

// RunAll executes the (mode × app) matrix across a bounded worker pool and
// returns the first error. With no modes given it runs all three
// configurations. Results land in the suite's cache, so experiments
// consuming them afterwards are pure table rendering; runs already cached
// (or requested concurrently by another experiment) are not duplicated.
func (s *Suite) RunAll(modes ...platform.Mode) error {
	if len(modes) == 0 {
		modes = AllModes()
	}
	type job struct {
		mode platform.Mode
		app  tailbench.Profile
	}
	var jobs []job
	for _, m := range modes {
		for _, app := range s.Apps {
			jobs = append(jobs, job{m, app})
		}
	}
	workers := s.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(jobs))

	jobCh := make(chan job)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				if _, err := s.Result(j.mode, j.app); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	return firstErr
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
