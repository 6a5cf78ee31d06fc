// Command pageforge runs the paper's experiments and prints their tables.
//
// Usage:
//
//	pageforge list
//	pageforge run [-exp all|NAME]
//	              [-apps img_dnn,silo,...] [-fast] [-seed N] [-fault-rate r1,r2,...] [-verify-n N] [-overcommit r1,r2,...]
//	              [-crash-passes p1,p2,...] [-ckpt-every n1,n2,...] [-json] [-out DIR]
//	pageforge explain [-mode KSM|PageForge] [-app name] [-fast] [-seed N] [-pfn N] [-out DIR]
//	pageforge report [-track substr] DIR
//
// `pageforge list` names every experiment of the registry in
// internal/experiments. Each experiment prints the same rows/series the
// corresponding table or figure of the paper reports, with the paper's
// headline numbers noted for comparison; -json replaces the text tables with
// one machine-readable document on stdout. The per-application experiments
// (timeline, sweep) emit one artifact per selected application, keyed
// NAME_app. -out DIR writes trace.json (the simulation events as Chrome
// trace_event JSON, for Perfetto), metrics.json (each run's counters and
// histograms), series.json (each run's per-pass counter deltas and gauges),
// cpu.pprof and heap.pprof into one directory.
// A failing experiment is reported on stderr and the remaining selections
// still run; the exit status is then non-zero. An -out directory that cannot
// be created or written, or that already holds files, fails fast with exit
// status 3, before any simulation runs.
//
// `pageforge explain` runs one configuration with the merge-lifecycle
// provenance ledger attached and replays a frame's recorded history; with
// -out DIR it also writes the run's ledger.json and series.json.
// `pageforge report` renders convergence-curve and scan-budget attribution
// tables from a directory written by run -out or explain -out.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	pageforgesim "repro"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/platform"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		list()
	case "run":
		run(os.Args[2:])
	case "explain":
		explain(os.Args[2:])
	case "report":
		report(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pageforge list
  pageforge run [-exp all|`+strings.Join(pageforgesim.Experiments().Names(), "|")+`] [-apps a,b] [-fast] [-seed N] [-parallel N] [-quiet] [-fault-rate r1,r2,...] [-verify-n N] [-overcommit r1,r2,...] [-crash-passes p1,p2,...] [-ckpt-every n1,n2,...]
                [-json] [-out DIR]
  pageforge explain [-mode KSM|PageForge] [-app name] [-fast] [-seed N] [-pfn N] [-out DIR]
  pageforge report [-track substr] DIR`)
}

// startProfiling writes a CPU profile to dir/cpu.pprof until stop, and a
// heap profile to dir/heap.pprof at stop. The returned stop must run before
// exit for the files to be complete; it reports a heap profile it could not
// write.
func startProfiling(dir string) (stop func() error, err error) {
	cpuF, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		cpuF.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpuF.Close(); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		runtime.GC() // settle the heap so the profile shows live objects
		if err := writeFile(filepath.Join(dir, "heap.pprof"), func(f *os.File) error { return pprof.WriteHeapProfile(f) }); err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		return nil
	}, nil
}

// prepareOutDir creates an -out directory and exits with status 3, before
// any simulation work, when it cannot be created or written or when it
// already holds files: discovering an unwritable destination after a long
// run would throw the whole run away, and refusing a used directory keeps
// one run's artifacts from mixing with another's.
func prepareOutDir(dir string) {
	var entries []os.DirEntry
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		entries, err = os.ReadDir(dir)
	}
	if err == nil && len(entries) > 0 {
		err = fmt.Errorf("%s is not empty", dir)
	}
	if err == nil { // an empty directory can still refuse writes
		var probe *os.File
		if probe, err = os.CreateTemp(dir, "probe"); err == nil {
			probe.Close()
			err = os.Remove(probe.Name())
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: output directory: %v\n", err)
		os.Exit(3)
	}
}

func list() {
	fmt.Println("Experiments (paper artifact -> harness):")
	for _, e := range pageforgesim.Experiments() {
		fmt.Printf("  %-7s %s\n", e.Name, e.Title)
	}
	fmt.Println("\nApplications (Table 3):")
	for _, p := range pageforgesim.Profiles() {
		fmt.Printf("  %-9s QPS=%-5.0f service=%.2fms  util=%.2f\n",
			p.Name, p.QPS, p.MeanServiceCycles/2e6, p.Utilization())
	}
	cfg := pageforgesim.DefaultConfig()
	fmt.Printf("\nMachine (Table 2): %d cores @2GHz, %d VMs, sleep=%gms, pages_to_scan=%d\n",
		cfg.Cores, cfg.VMs, cfg.SleepMillis, cfg.PagesToScan)
}

// newSuite builds the paper-sized suite, or the scaled-down one when fast.
func newSuite(fast bool) *experiments.Suite {
	if fast {
		return pageforgesim.NewFastSuite()
	}
	return pageforgesim.NewSuite()
}

// parseList parses a comma-separated flag value, exiting with status 2 on
// a malformed element. An empty value is an empty list.
func parseList[T any](flagName, s string, parse func(string) (T, error)) []T {
	var out []T
	if s == "" {
		return out
	}
	for _, tok := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(tok))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad %s %q: %v\n", flagName, tok, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func run(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment to run")
	apps := fs.String("apps", "", "comma-separated application subset")
	fast := fs.Bool("fast", false, "scaled-down quick mode")
	seed := fs.Uint64("seed", 1, "simulation seed")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulation runs (results are bit-identical at any setting)")
	quiet := fs.Bool("quiet", false, "suppress per-run progress lines on stderr")
	faultRates := fs.String("fault-rate", "", "comma-separated UE-per-read rates for the ras experiment (default sweep when empty)")
	verifyN := fs.Int("verify-n", experiments.DefaultVerifyScenarios, "randomized scenario count for the verify experiment")
	overcommit := fs.String("overcommit", "", "comma-separated demand/capacity ratios for the pressure experiment (default sweep when empty)")
	crashPasses := fs.String("crash-passes", "", "comma-separated convergence passes to crash at for the crash experiment (default sweep when empty)")
	ckptEvery := fs.String("ckpt-every", "", "comma-separated checkpoint intervals for the crash experiment (default sweep when empty)")
	jsonOut := fs.Bool("json", false, "emit one machine-readable JSON document on stdout instead of text tables")
	out := fs.String("out", "", "write trace.json, metrics.json, series.json, cpu.pprof and heap.pprof into this new or empty directory")
	fs.Parse(args)

	selected, err := pageforgesim.Experiments().Select(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	in := pageforgesim.Inputs{
		FaultRates:  parseList("-fault-rate", *faultRates, parseFloat),
		VerifyN:     *verifyN,
		Overcommit:  parseList("-overcommit", *overcommit, parseFloat),
		CrashPasses: parseList("-crash-passes", *crashPasses, strconv.Atoi),
		CkptEvery:   parseList("-ckpt-every", *ckptEvery, strconv.Atoi),
	}
	suite := newSuite(*fast)
	suite.Cfg.Seed = *seed
	if *apps != "" {
		// Each named app leaves the pool as it is selected, so a repeat is
		// rejected rather than counted twice in the averages.
		pool := map[string]pageforgesim.Profile{}
		for _, p := range suite.Apps {
			pool[p.Name] = p
		}
		var sel []pageforgesim.Profile
		for _, name := range strings.Split(*apps, ",") {
			p, ok := pool[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown or repeated application %q\n", name)
				os.Exit(2)
			}
			delete(pool, name)
			sel = append(sel, p)
		}
		suite.Apps = sel
	}
	stopProf := func() error { return nil }
	if *out != "" {
		prepareOutDir(*out)
		if stopProf, err = startProfiling(*out); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}

	// A failing experiment must not silently take the rest down: the error
	// is reported, the remaining selections still run, and the process
	// exits non-zero at the end.
	exitCode := 0
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "error:", err)
		exitCode = 1
	}

	// -out arms event recording and per-pass sampling on every platform
	// run; -json redirects experiment results into one document instead of
	// printing tables.
	if *out != "" {
		suite.Cfg.Trace = obs.NewTracer(obs.DefaultTraceCapacity)
		suite.Cfg.Series = obs.NewSeries(obs.DefaultSeriesCapacity)
	}
	var doc *experiments.Doc
	if *jsonOut {
		doc = experiments.NewDoc(suite)
	}

	// Fan the selected experiments' (mode × app) simulation matrix out
	// across the worker pool up front; the experiments then render from
	// the warm cache. Progress and the duration summary go to stderr so
	// stdout stays pure tables.
	suite.Parallelism = *parallel
	var progress *experiments.ProgressReporter
	if !*quiet {
		progress = experiments.NewProgressReporter(os.Stderr)
		suite.Reporter = progress
	}
	modes := selected.Modes()
	if len(modes) > 0 {
		if err := suite.RunAll(modes...); err != nil {
			fail(err)
		}
	}
	for _, e := range selected {
		arts, err := e.Run(suite, in)
		for _, a := range arts {
			if doc != nil {
				doc.Add(a.Key, a.Value)
			} else {
				fmt.Println(a.Text)
			}
		}
		if err != nil {
			fail(err)
		}
	}
	if progress != nil && len(modes) > 0 {
		fmt.Fprintln(os.Stderr, "\n"+progress.Summary())
	}

	if doc != nil {
		if err := doc.Encode(os.Stdout); err != nil {
			fail(err)
		}
	}
	if *out != "" {
		if err := writeTrace(suite.Cfg.Trace, filepath.Join(*out, "trace.json")); err != nil {
			fail(err)
		}
		if err := writeFile(filepath.Join(*out, "metrics.json"), func(f *os.File) error {
			return experiments.NewMetricsDoc(suite).Encode(f)
		}); err != nil {
			fail(err)
		}
		if err := writeSeries(suite.Cfg.Series, filepath.Join(*out, "series.json")); err != nil {
			fail(err)
		}
	}
	if err := stopProf(); err != nil {
		fail(err)
	}
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// writeTrace serializes the tracer to a Chrome trace_event file and notes
// the volume (and any ring-buffer drops) on stderr.
func writeTrace(tr *obs.Tracer, path string) error {
	err := writeFile(path, func(f *os.File) error { return tr.WriteJSON(f) })
	if err == nil {
		fmt.Fprintf(os.Stderr, "trace: %d events -> %s (dropped %d)\n", tr.Len(), path, tr.Dropped())
	}
	return err
}

// writeFile creates path and streams its content into it via write.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSeries serializes the per-pass series artifact and notes its volume
// on stderr.
func writeSeries(s *obs.Series, path string) error {
	err := writeFile(path, func(f *os.File) error { return s.WriteJSON(f) })
	if err == nil {
		fmt.Fprintf(os.Stderr, "series: %d tracks -> %s\n", len(s.TrackNames()), path)
	}
	return err
}

// explain runs one configuration with the merge-lifecycle provenance ledger
// attached and replays what it recorded: the attribution summary, the most
// eventful frames, and — with -pfn — one frame's full history. -out also
// attaches the per-pass series and writes both, as ledger.json and
// series.json, into a directory `pageforge report` reads.
func explain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	modeName := fs.String("mode", "PageForge", "engine configuration (KSM or PageForge)")
	appName := fs.String("app", "img_dnn", "application profile")
	fast := fs.Bool("fast", true, "scaled-down quick mode")
	seed := fs.Uint64("seed", 1, "simulation seed")
	pfn := fs.Int64("pfn", -1, "physical frame whose history to replay (-1: summary only)")
	out := fs.String("out", "", "write ledger.json and series.json into this new or empty directory")
	fs.Parse(args)

	var mode platform.Mode
	switch strings.ToLower(*modeName) {
	case "ksm":
		mode = platform.KSM
	case "pageforge":
		mode = platform.PageForge
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q (want KSM or PageForge)\n", *modeName)
		os.Exit(2)
	}
	suite := newSuite(*fast)
	var app *pageforgesim.Profile
	for i := range suite.Apps {
		if suite.Apps[i].Name == *appName {
			app = &suite.Apps[i]
		}
	}
	if app == nil {
		fmt.Fprintf(os.Stderr, "unknown application %q\n", *appName)
		os.Exit(2)
	}

	cfg := suite.Cfg
	cfg.Seed = *seed
	ledger := obs.NewLedger(0)
	cfg.Ledger = ledger
	if *out != "" {
		prepareOutDir(*out)
		cfg.Series = obs.NewSeries(obs.DefaultSeriesCapacity)
	}
	res, err := pageforgesim.Run(mode, *app, cfg)
	if err == nil && *out != "" {
		err = writeFile(filepath.Join(*out, "ledger.json"), func(f *os.File) error { return ledger.WriteJSON(f) })
		if err == nil {
			err = writeSeries(cfg.Series, filepath.Join(*out, "series.json"))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	at := ledger.Attribution()
	fmt.Printf("explain: %s/%s seed=%d — %d ledger events (dropped %d), %d passes, %.1f%% memory saved\n",
		mode, app.Name, *seed, at.Events, at.Dropped, res.ConvergedPasses, res.Footprint.Savings()*100)
	fmt.Println("\nlifecycle transitions:")
	for _, k := range sortedKeys(at.Kinds) {
		fmt.Printf("  %-14s %d\n", k, at.Kinds[k])
	}
	if len(at.Causes) > 0 {
		fmt.Println("\nwasted scan work by cause:")
		for _, c := range sortedKeys(at.Causes) {
			fmt.Printf("  %-22s %d\n", c, at.Causes[c])
		}
	}

	if *pfn < 0 {
		// No frame selected: point at the busiest ones so the user knows
		// which -pfn values have a story to tell.
		counts := map[uint64]int{}
		for _, e := range ledger.Events() {
			if e.PFN != obs.LedgerNoPFN {
				counts[e.PFN]++
			}
		}
		type fc struct {
			pfn uint64
			n   int
		}
		var top []fc
		for p, n := range counts {
			top = append(top, fc{p, n})
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].n != top[j].n {
				return top[i].n > top[j].n
			}
			return top[i].pfn < top[j].pfn
		})
		if len(top) > 10 {
			top = top[:10]
		}
		fmt.Println("\nmost eventful frames (rerun with -pfn N for a full history):")
		for _, t := range top {
			fmt.Printf("  frame %-8d %d events\n", t.pfn, t.n)
		}
		return
	}

	hist := ledger.FrameHistory(uint64(*pfn))
	fmt.Printf("\nframe %d history (%d events):\n", *pfn, len(hist))
	if len(hist) == 0 {
		fmt.Println("  (no recorded events touch this frame)")
	}
	for _, e := range hist {
		fmt.Println("  " + formatLedgerEvent(e))
	}
}

// sortedKeys returns a string-keyed map's keys in sorted order.
func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatLedgerEvent renders one provenance event as a human-readable line.
func formatLedgerEvent(e obs.LedgerEvent) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%-6d pass=%-3d %-12s", e.Seq, e.Pass, e.Kind)
	if e.VM >= 0 {
		fmt.Fprintf(&b, " vm%d/gfn%d", e.VM, e.GFN)
	}
	if e.PFN != obs.LedgerNoPFN {
		fmt.Fprintf(&b, " pfn=%d", e.PFN)
	}
	switch e.Kind {
	case obs.LKMerged, obs.LKCoWBroken:
		fmt.Fprintf(&b, " -> frame %d", e.Arg)
	case obs.LKShed:
		fmt.Fprintf(&b, " (%d candidates deferred)", e.Arg)
	case obs.LKRestored:
		fmt.Fprintf(&b, " (replay resumes at pass %d)", e.Arg)
	}
	if e.Cause != obs.CauseNone {
		fmt.Fprintf(&b, " [%s]", e.Cause)
	}
	return b.String()
}

// report renders the observability artifacts of an -out directory:
// per-pass convergence-curve tables from its series.json, and — when the
// directory holds one, as `pageforge explain -out` writes — the scan-budget
// attribution of its ledger.json. It runs no simulation; everything comes
// from the artifacts.
func report(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	trackFilter := fs.String("track", "", "only render tracks whose name contains this substring")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pageforge report [-track substr] DIR")
		os.Exit(2)
	}
	dir := fs.Arg(0)

	f, err := os.Open(filepath.Join(dir, "series.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
	sf, err := obs.ReadSeriesJSON(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}

	rendered := 0
	for _, tr := range sf.Tracks {
		if *trackFilter != "" && !strings.Contains(tr.Name, *trackFilter) {
			continue
		}
		rendered++
		reportTrack(tr)
	}
	if rendered == 0 {
		fmt.Fprintf(os.Stderr, "report: no tracks matched (artifact has %d)\n", len(sf.Tracks))
		os.Exit(1)
	}

	lf, err := os.Open(filepath.Join(dir, "ledger.json"))
	if errors.Is(err, os.ErrNotExist) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
	led, err := obs.ReadLedgerJSON(lf)
	lf.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
	reportLedger(led)
}

// reportTrack renders one track's convergence curve: per-window scan volume,
// merge/unmerge deltas, the live frame count, and the merge rate — the
// coverage-vs-cost view of one run.
func reportTrack(tr obs.SeriesFileTrack) {
	fmt.Printf("track %s — %d points (dropped %d)\n", tr.Name, len(tr.Points), tr.Dropped)
	fmt.Printf("  %-12s %10s %10s %8s %8s %9s %12s\n",
		"window", "Mcycles", "scanned", "merged", "unmerged", "frames", "merges/Mcyc")
	var scanned, merged uint64
	for _, p := range tr.Points {
		scanned += p.Counters["ksm/pages_scanned"]
		merged += p.Counters["vm/merges"]
		// A window that spans no simulated cycles (a KSM convergence pass
		// does not advance the platform clock) has no rate, not a zero one.
		rate := "-"
		if p.WindowCycles > 0 {
			rate = fmt.Sprintf("%.2f", p.Rates["vm/merges"])
		}
		fmt.Printf("  %-12s %10.1f %10d %8d %8d %9.0f %12s\n",
			fmt.Sprintf("%s %d", p.Phase, p.Index),
			float64(p.WindowCycles)/1e6,
			p.Counters["ksm/pages_scanned"],
			p.Counters["vm/merges"],
			p.Counters["vm/unmerges"],
			p.Gauges["platform/frames_allocated"],
			rate)
	}
	eff := 0.0
	if scanned > 0 {
		eff = float64(merged) / float64(scanned) * 1000
	}
	fmt.Printf("  total: %d scanned, %d merged (%.1f merges per 1k scanned)\n\n", scanned, merged, eff)
}

// reportLedger renders a ledger artifact's scan-budget attribution: the
// lifecycle-transition totals, the wasted-work cause totals, and the
// per-pass waste breakdown.
func reportLedger(led *obs.LedgerFile) {
	at := led.Attribution
	fmt.Printf("ledger — %d events (dropped %d)\n", at.Events, at.Dropped)
	fmt.Println("  lifecycle transitions:")
	for _, k := range sortedKeys(at.Kinds) {
		fmt.Printf("    %-22s %d\n", k, at.Kinds[k])
	}
	if len(at.Causes) > 0 {
		fmt.Println("  wasted scan work by cause:")
		for _, c := range sortedKeys(at.Causes) {
			fmt.Printf("    %-22s %d\n", c, at.Causes[c])
		}
	}
	// Per-pass waste: which passes burned budget, and on what.
	type waste struct {
		churn, unstable, fault, shed uint64
	}
	perPass := map[int]*waste{}
	var passes []int
	for _, e := range led.Events {
		if e.Cause == "" {
			continue
		}
		w := perPass[e.Pass]
		if w == nil {
			w = &waste{}
			perPass[e.Pass] = w
			passes = append(passes, e.Pass)
		}
		switch e.Cause {
		case "content_churn":
			w.churn++
		case "checksum_instability":
			w.unstable++
		case "fault_retry":
			w.fault++
		case "backpressure_shed":
			w.shed++
		}
	}
	if len(passes) == 0 {
		return
	}
	sort.Ints(passes)
	fmt.Printf("  %-6s %8s %10s %8s %8s\n", "pass", "churn", "unstable", "fault", "shed")
	for _, p := range passes {
		w := perPass[p]
		fmt.Printf("  %-6d %8d %10d %8d %8d\n", p, w.churn, w.unstable, w.fault, w.shed)
	}
}
