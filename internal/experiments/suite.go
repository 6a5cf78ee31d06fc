// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6): Figure 7 (memory savings), Figure 8 (hash-key
// accuracy), Table 4 (KSM characterization), Figures 9 and 10 (mean and
// tail latency), Figure 11 (memory bandwidth), and Table 5 (PageForge
// design characteristics). Each experiment returns structured rows plus a
// paper-style text rendering.
package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/platform"
	"repro/internal/tailbench"
)

// Suite shares the expensive (mode, application) simulation runs across
// experiments: Figures 9-11 and Tables 4-5 all consume the same runs.
//
// Result is safe for concurrent use from any number of goroutines: the
// cache is singleflight-style, so two experiments requesting the same
// (mode, app) run share one execution instead of duplicating or racing
// it. RunAll fans the whole matrix out across a bounded worker pool.
type Suite struct {
	Cfg platform.Config
	// Apps are the workloads to evaluate (default: all five TailBench
	// applications of Table 3).
	Apps []tailbench.Profile
	// MinQueries controls queueing-simulation quality per VM.
	MinQueries int
	// Parallelism bounds how many platform runs RunAll executes
	// concurrently (0 means GOMAXPROCS). Each run is hermetic — it owns
	// its image, L3, DRAM model, and RNG streams — so
	// parallel execution is bit-identical to sequential for the same
	// seeds.
	Parallelism int
	// Reporter, when non-nil, observes run start/finish events. It must
	// be safe for concurrent use (ProgressReporter is).
	Reporter Reporter

	mu      sync.Mutex
	results map[string]*runEntry

	// runFn is the simulation entry point; tests substitute it to observe
	// scheduling without paying for real runs.
	runFn func(platform.Mode, tailbench.Profile, platform.Config) (*platform.Result, error)
}

// runEntry is one singleflight cache slot: the first goroutine to arrive
// executes the run inside once; every later goroutine for the same key
// blocks on the same once and shares the outcome.
type runEntry struct {
	once sync.Once
	res  *platform.Result
	err  error
}

// NewSuite builds a suite over the paper's default setup.
func NewSuite() *Suite {
	return &Suite{
		Cfg:        platform.DefaultConfig(),
		Apps:       tailbench.Profiles(),
		MinQueries: 2000,
		results:    make(map[string]*runEntry),
		runFn:      platform.Run,
	}
}

// NewFastSuite is a scaled-down suite for tests and quick demos.
func NewFastSuite() *Suite {
	s := NewSuite()
	s.Cfg.ConvergePasses = 10
	s.Cfg.MeasureIntervals = 10
	s.Cfg.PagesToScan = 200
	s.MinQueries = 400
	for i := range s.Apps {
		s.Apps[i].PagesPerVM = 300
	}
	return s
}

// Result returns the cached simulation result for (mode, app), running it
// on first use. Concurrent callers for the same key share one execution.
func (s *Suite) Result(mode platform.Mode, app tailbench.Profile) (*platform.Result, error) {
	key := fmt.Sprintf("%s/%s", mode, app.Name)
	s.mu.Lock()
	if s.results == nil {
		s.results = make(map[string]*runEntry)
	}
	if s.runFn == nil {
		s.runFn = platform.Run
	}
	e, ok := s.results[key]
	if !ok {
		e = &runEntry{}
		s.results[key] = e
	}
	s.mu.Unlock()

	e.once.Do(func() {
		rep := s.Reporter
		if rep != nil {
			rep.RunStarted(mode, app.Name)
		}
		start := time.Now()
		r, err := s.runFn(mode, app, s.Cfg)
		if err != nil {
			e.err = fmt.Errorf("experiments: %s on %s: %w", mode, app.Name, err)
		} else {
			e.res = r
		}
		if rep != nil {
			rep.RunFinished(mode, app.Name, time.Since(start), e.err)
		}
	})
	return e.res, e.err
}

// --- rendering helpers ----------------------------------------------------

type table struct {
	title  string
	header []string
	rows   [][]string
	notes  []string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	// A row may carry more cells than the header; size the widths to the
	// widest row so rendering never indexes out of range.
	ncols := len(t.header)
	for _, r := range t.rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.title)
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.header)
	dashes := make([]string, len(widths))
	for i, w := range widths {
		dashes[i] = strings.Repeat("-", w)
	}
	line(dashes)
	for _, r := range t.rows {
		line(r)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string {
	return fmt.Sprintf("%.1f%%", v*100)
}
