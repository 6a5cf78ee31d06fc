// Command pageforge runs the paper's experiments and prints their tables.
//
// Usage:
//
//	pageforge list
//	pageforge run [-exp all|fig7|fig8|fig9|fig10|fig11|table4|table5|latency|satori|timeline|ras|verify|pressure|crash|efficiency|stream]
//	              [-apps img_dnn,silo,...] [-fast] [-seed N] [-fault-rate r1,r2,...] [-verify-n N] [-overcommit r1,r2,...]
//	              [-crash-passes p1,p2,...] [-ckpt-every n1,n2,...]
//	              [-json] [-trace file] [-metrics file] [-series file]
//	              [-cpuprofile file] [-memprofile file] [-pprof addr]
//	pageforge explain [-mode KSM|PageForge] [-app name] [-fast] [-seed N] [-pfn N] [-json]
//	pageforge report -series file [-ledger file] [-track substr]
//	pageforge bench [-out BENCH_suite.json] [-fast] [-parallel N] [-seed N]
//
// Each experiment prints the same rows/series the corresponding table or
// figure of the paper reports, with the paper's headline numbers noted for
// comparison; -json replaces the text tables with one machine-readable
// document on stdout. -trace writes a Chrome trace_event file of the runs'
// simulation events (open in Perfetto or chrome://tracing); -metrics dumps
// every run's full counter/histogram snapshot; -series dumps every run's
// per-pass time-series samples (counter deltas and gauges at each
// convergence-pass and measurement-interval boundary). A failing experiment
// is reported on stderr and the remaining selections still run; the exit
// status is then non-zero. An output-artifact path that cannot be created
// fails fast with exit status 3, before any simulation runs.
//
// `pageforge explain` runs one configuration with the merge-lifecycle
// provenance ledger attached and replays a frame's recorded history;
// `pageforge report` renders convergence-curve and scan-budget attribution
// tables from previously written -series and ledger artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

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
	case "bench":
		bench(os.Args[2:])
	case "sweep":
		sweep(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pageforge list
  pageforge run [-exp all|fig7|fig8|fig9|fig10|fig11|table4|table5|latency|satori|timeline|ras|verify|pressure|crash|efficiency|stream] [-apps a,b] [-fast] [-seed N] [-parallel N] [-quiet] [-fault-rate r1,r2,...] [-verify-n N] [-overcommit r1,r2,...] [-crash-passes p1,p2,...] [-ckpt-every n1,n2,...]
                [-json] [-trace file] [-metrics file] [-series file] [-cpuprofile file] [-memprofile file] [-pprof addr]
  pageforge explain [-mode KSM|PageForge] [-app name] [-fast] [-seed N] [-pfn N] [-json]
  pageforge report -series file [-ledger file] [-track substr]
  pageforge bench [-out BENCH_suite.json] [-fast] [-parallel N] [-seed N]
  pageforge sweep [-app name] [-pages N] [-seconds S]`)
}

// startProfiling arms the optional profiling hooks: a CPU profile written
// until stop, a heap profile written at stop, and a live net/http/pprof
// server. The returned stop must run before exit for the files to be
// complete.
func startProfiling(cpuFile, memFile, addr string) (stop func(), err error) {
	var cpuF *os.File
	if cpuFile != "" {
		cpuF, err = os.Create(cpuFile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	if addr != "" {
		go func() {
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof server on http://%s/debug/pprof/\n", addr)
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if memFile != "" {
			f, err := os.Create(memFile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}, nil
}

// experimentTable names every experiment `run -exp` accepts (besides "all")
// with its `list` description.
var experimentTable = [][2]string{
	{"fig7", "Figure 7: memory allocation without/with page merging (avg -48%)"},
	{"fig8", "Figure 8: jhash vs ECC-based hash key comparison outcomes"},
	{"table4", "Table 4: KSM configuration characterization"},
	{"fig9", "Figure 9: mean sojourn latency (Baseline/KSM/PageForge)"},
	{"fig10", "Figure 10: 95th percentile latency"},
	{"fig11", "Figure 11: memory bandwidth in the dedup-intensive phase"},
	{"table5", "Table 5: PageForge timing, area, and power"},
	{"latency", "Demand-access latency distribution (mean/p50/p95/p99/max cycles)"},
	{"satori", "Extension: short-lived sharing capture vs scan aggressiveness (Satori, §7.2)"},
	{"timeline", "Extension: savings convergence ramp, KSM vs PageForge"},
	{"ras", "Extension: DRAM fault rate vs merge coverage, scrub/retry overhead, degradation"},
	{"verify", "Model-based verification: randomized scenarios, invariant checker, KSM≡PageForge differential"},
	{"pressure", "Robustness: overcommit storm vs graceful OOM, ballooning, backpressure, degradation ladder"},
	{"crash", "Robustness: host crash x checkpoint interval vs verified recovery, replay cost, bit-identity"},
	{"efficiency", "Observability: scan-budget attribution (ledger causes), convergence speed, zero-perturbation proof"},
	{"stream", "Runtime: tick-driven streaming runs — config-scheduled ≡ live-injected event equivalence per world shape"},
}

// checkExperiment rejects an -exp value that names no experiment.
func checkExperiment(name string) error {
	if name == "all" {
		return nil
	}
	valid := []string{"all"}
	for _, e := range experimentTable {
		if e[0] == name {
			return nil
		}
		valid = append(valid, e[0])
	}
	return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(valid, ", "))
}

func list() {
	fmt.Println("Experiments (paper artifact -> harness):")
	for _, e := range experimentTable {
		fmt.Printf("  %-7s %s\n", e[0], e[1])
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
	crashPassesFlag := fs.String("crash-passes", "", "comma-separated convergence passes to crash at for the crash experiment (default sweep when empty)")
	ckptEveryFlag := fs.String("ckpt-every", "", "comma-separated checkpoint intervals for the crash experiment (default sweep when empty)")
	jsonOut := fs.Bool("json", false, "emit one machine-readable JSON document on stdout instead of text tables")
	traceFile := fs.String("trace", "", "write a Chrome trace_event JSON file of the simulation runs (Perfetto-loadable)")
	metricsFile := fs.String("metrics", "", "write every run's full metrics snapshot (counters, gauges, histograms) as JSON")
	seriesFile := fs.String("series", "", "write every run's per-pass time-series samples (counter deltas, gauges) as JSON")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.Parse(args)

	if err := checkExperiment(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	checkArtifactPaths(*traceFile, *metricsFile, *seriesFile)
	stopProf, err := startProfiling(*cpuProfile, *memProfile, *pprofAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	parseFloats := func(flagName, s string) []float64 {
		var out []float64
		if s == "" {
			return out
		}
		for _, tok := range strings.Split(s, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad %s %q: %v\n", flagName, tok, err)
				os.Exit(2)
			}
			out = append(out, v)
		}
		return out
	}
	rates := parseFloats("-fault-rate", *faultRates)
	ratios := parseFloats("-overcommit", *overcommit)
	parseInts := func(flagName, s string) []int {
		var out []int
		if s == "" {
			return out
		}
		for _, tok := range strings.Split(s, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad %s %q: %v\n", flagName, tok, err)
				os.Exit(2)
			}
			out = append(out, v)
		}
		return out
	}
	crashPasses := parseInts("-crash-passes", *crashPassesFlag)
	ckptEvery := parseInts("-ckpt-every", *ckptEveryFlag)

	var suite *experiments.Suite
	if *fast {
		suite = pageforgesim.NewFastSuite()
	} else {
		suite = pageforgesim.NewSuite()
	}
	suite.Cfg.Seed = *seed
	if *apps != "" {
		var sel []pageforgesim.Profile
		for _, name := range strings.Split(*apps, ",") {
			found := false
			for _, p := range suite.Apps {
				if p.Name == name {
					sel = append(sel, p)
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "unknown application %q\n", name)
				os.Exit(2)
			}
		}
		suite.Apps = sel
	}

	// A failing experiment must not silently take the rest down: the error
	// is reported, the remaining selections still run, and the process
	// exits non-zero at the end.
	exitCode := 0
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "error:", err)
		exitCode = 1
	}
	want := func(name string) bool { return *exp == "all" || *exp == name }

	// -trace arms event recording and -series per-pass sampling on every
	// platform run; -json redirects experiment results into one document
	// instead of printing tables.
	if *traceFile != "" {
		suite.Cfg.Trace = pageforgesim.NewTracer(pageforgesim.DefaultTraceCapacity)
	}
	if *seriesFile != "" {
		suite.Cfg.Series = pageforgesim.NewSeries(pageforgesim.DefaultSeriesCapacity)
	}
	var doc *experiments.Doc
	if *jsonOut {
		doc = experiments.NewDoc(suite)
	}
	emit := func(name string, r any) {
		if doc != nil {
			doc.Add(name, r)
		} else {
			fmt.Println(r)
		}
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
	modeSet := map[platform.Mode]bool{}
	if want("fig7") {
		modeSet[platform.KSM] = true
	}
	if want("table4") {
		modeSet[platform.Baseline] = true
		modeSet[platform.KSM] = true
	}
	if want("fig9") || want("fig10") || want("fig11") || want("latency") {
		for _, m := range experiments.AllModes() {
			modeSet[m] = true
		}
	}
	if want("table5") {
		modeSet[platform.PageForge] = true
	}
	if len(modeSet) > 0 {
		var modes []platform.Mode
		for _, m := range experiments.AllModes() {
			if modeSet[m] {
				modes = append(modes, m)
			}
		}
		if err := suite.RunAll(modes...); err != nil {
			fail(err)
		}
	}

	if want("fig7") {
		if r, err := pageforgesim.Figure7(suite); err != nil {
			fail(err)
		} else {
			emit("fig7", r)
		}
	}
	if want("fig8") {
		if r, err := pageforgesim.Figure8(suite); err != nil {
			fail(err)
		} else {
			emit("fig8", r)
		}
	}
	if want("table4") {
		if r, err := pageforgesim.Table4(suite); err != nil {
			fail(err)
		} else {
			emit("table4", r)
		}
	}
	if want("fig9") || want("fig10") {
		if r, err := pageforgesim.LatencyExperiment(suite); err != nil {
			fail(err)
		} else if doc != nil {
			if want("fig9") {
				doc.Add("fig9", r)
			}
			if want("fig10") {
				doc.Add("fig10", r)
			}
		} else {
			if want("fig9") {
				fmt.Println(r.Figure9())
			}
			if want("fig10") {
				fmt.Println(r.Figure10())
			}
		}
	}
	if want("fig11") {
		if r, err := pageforgesim.Figure11(suite); err != nil {
			fail(err)
		} else {
			emit("fig11", r)
		}
	}
	if want("table5") {
		if r, err := pageforgesim.Table5(suite); err != nil {
			fail(err)
		} else {
			emit("table5", r)
		}
	}
	if want("latency") {
		if r, err := pageforgesim.DemandLatency(suite); err != nil {
			fail(err)
		} else {
			emit("latency", r)
		}
	}
	if want("satori") {
		if r, err := pageforgesim.Satori(suite); err != nil {
			fail(err)
		} else {
			emit("satori", r)
		}
	}
	if want("timeline") {
		for _, app := range suite.Apps {
			if r, err := pageforgesim.Timeline(suite, app, 60); err != nil {
				fail(err)
			} else {
				emit("timeline_"+app.Name, r)
			}
		}
	}
	if want("ras") {
		if r, err := pageforgesim.RASExperiment(suite, rates); err != nil {
			fail(err)
		} else {
			emit("ras", r)
		}
	}
	if want("verify") {
		if r, err := pageforgesim.VerifyExperiment(suite, *verifyN); err != nil {
			fail(err)
		} else {
			emit("verify", r)
		}
	}
	if want("pressure") {
		if r, err := pageforgesim.PressureExperiment(suite, ratios); err != nil {
			fail(err)
		} else {
			emit("pressure", r)
		}
	}
	if want("crash") {
		if r, err := pageforgesim.CrashExperiment(suite, crashPasses, ckptEvery); err != nil {
			fail(err)
		} else {
			emit("crash", r)
		}
	}
	if want("efficiency") {
		if r, err := pageforgesim.EfficiencyExperiment(suite); err != nil {
			fail(err)
		} else {
			emit("efficiency", r)
		}
	}
	if want("stream") {
		if r, err := pageforgesim.StreamExperiment(suite); err != nil {
			fail(err)
		} else {
			emit("stream", r)
		}
	}
	if progress != nil && len(modeSet) > 0 {
		fmt.Fprintln(os.Stderr, "\n"+progress.Summary())
	}

	if doc != nil {
		if err := doc.Encode(os.Stdout); err != nil {
			fail(err)
		}
	}
	if *traceFile != "" {
		if err := writeTrace(suite.Cfg.Trace, *traceFile); err != nil {
			fail(err)
		}
	}
	if *metricsFile != "" {
		if err := writeFileJSON(*metricsFile, func(f *os.File) error {
			return pageforgesim.NewMetricsDoc(suite).Encode(f)
		}); err != nil {
			fail(err)
		}
	}
	if *seriesFile != "" {
		if err := writeSeries(suite.Cfg.Series, *seriesFile); err != nil {
			fail(err)
		}
	}
	stopProf()
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// writeTrace serializes the tracer to a Chrome trace_event file and notes
// the volume (and any ring-buffer drops) on stderr.
func writeTrace(tr *pageforgesim.Tracer, path string) error {
	err := writeFileJSON(path, func(f *os.File) error { return tr.WriteJSON(f) })
	if err == nil {
		fmt.Fprintf(os.Stderr, "trace: %d events -> %s (dropped %d)\n", tr.Len(), path, tr.Dropped())
	}
	return err
}

// writeFileJSON creates path and streams JSON into it via write.
func writeFileJSON(path string, write func(*os.File) error) error {
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

// checkArtifactPaths fails fast — exit status 3, before any simulation work
// — when an output artifact path cannot be created: discovering an
// unwritable -trace/-metrics/-series destination after a long run would
// throw the whole run away. The probe opens without truncating so an
// existing artifact survives an unrelated later failure.
func checkArtifactPaths(paths ...string) {
	for _, p := range paths {
		if p == "" {
			continue
		}
		f, err := os.OpenFile(p, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: output artifact path is not writable: %v\n", err)
			os.Exit(3)
		}
		f.Close()
	}
}

// writeSeries serializes the per-pass series artifact and notes its volume
// on stderr.
func writeSeries(s *pageforgesim.Series, path string) error {
	err := writeFileJSON(path, func(f *os.File) error { return s.WriteJSON(f) })
	if err == nil {
		fmt.Fprintf(os.Stderr, "series: %d tracks -> %s\n", len(s.TrackNames()), path)
	}
	return err
}

// explain runs one configuration with the merge-lifecycle provenance ledger
// attached and replays what it recorded: the attribution summary, the most
// eventful frames, and — with -pfn — one frame's full history. -json emits
// the whole ledger as an artifact `pageforge report -ledger` can read.
func explain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	modeName := fs.String("mode", "PageForge", "engine configuration (KSM or PageForge)")
	appName := fs.String("app", "img_dnn", "application profile")
	fast := fs.Bool("fast", true, "scaled-down quick mode")
	seed := fs.Uint64("seed", 1, "simulation seed")
	pfn := fs.Int64("pfn", -1, "physical frame whose history to replay (-1: summary only)")
	jsonOut := fs.Bool("json", false, "emit the full ledger document as JSON on stdout")
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
	var suite *experiments.Suite
	if *fast {
		suite = pageforgesim.NewFastSuite()
	} else {
		suite = pageforgesim.NewSuite()
	}
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
	ledger := pageforgesim.NewLedger(0)
	cfg.Ledger = ledger
	res, err := pageforgesim.Run(mode, *app, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if *jsonOut {
		if err := ledger.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
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
			if e.PFN != pageforgesim.LedgerNoPFN {
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

// report renders previously written observability artifacts: per-pass
// convergence-curve tables from a -series file, and — with -ledger — the
// scan-budget attribution recorded by `pageforge explain -json`. It runs no
// simulation; everything comes from the artifacts.
func report(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	seriesPath := fs.String("series", "", "series artifact written by `pageforge run -series` (required)")
	ledgerPath := fs.String("ledger", "", "ledger artifact written by `pageforge explain -json`")
	trackFilter := fs.String("track", "", "only render tracks whose name contains this substring")
	fs.Parse(args)
	if *seriesPath == "" {
		fmt.Fprintln(os.Stderr, "report: -series file is required")
		os.Exit(2)
	}

	f, err := os.Open(*seriesPath)
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

	if *ledgerPath != "" {
		lf, err := os.Open(*ledgerPath)
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
		fmt.Printf("  %-12s %10.1f %10d %8d %8d %9.0f %12.2f\n",
			fmt.Sprintf("%s %d", p.Phase, p.Index),
			float64(p.WindowCycles)/1e6,
			p.Counters["ksm/pages_scanned"],
			p.Counters["vm/merges"],
			p.Counters["vm/unmerges"],
			p.Gauges["platform/frames_allocated"],
			p.Rates["vm/merges"])
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

// bench runs the full (mode × app) simulation matrix and writes a
// machine-readable benchmark artifact: per-run wall-clock times plus each
// run's headline metrics, with enough environment context (go version,
// parallelism) to compare artifacts across commits.
func bench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("out", "BENCH_suite.json", "artifact file")
	fast := fs.Bool("fast", true, "scaled-down suite (matches CI; -fast=false runs paper-sized images)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulation runs")
	fs.Parse(args)

	var suite *experiments.Suite
	if *fast {
		suite = pageforgesim.NewFastSuite()
	} else {
		suite = pageforgesim.NewSuite()
	}
	suite.Cfg.Seed = *seed
	suite.Parallelism = *parallel
	progress := experiments.NewProgressReporter(os.Stderr)
	suite.Reporter = progress

	start := time.Now()
	if err := suite.RunAll(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	type keyMetrics struct {
		AvgDemandLatency float64 `json:"avg_demand_latency_cycles"`
		DemandLatP95     float64 `json:"demand_latency_p95_cycles"`
		DemandLatP99     float64 `json:"demand_latency_p99_cycles"`
		L3MissRate       float64 `json:"l3_miss_rate"`
		TotalGBps        float64 `json:"total_gbps"`
		SavedFrac        float64 `json:"memory_savings_frac"`
	}
	artifact := struct {
		Schema      string                  `json:"schema"`
		GoVersion   string                  `json:"go_version"`
		Fast        bool                    `json:"fast"`
		Seed        uint64                  `json:"seed"`
		Parallelism int                     `json:"parallelism"`
		ElapsedSecs float64                 `json:"elapsed_seconds"`
		Runs        []experiments.RunRecord `json:"runs"`
		KeyMetrics  map[string]keyMetrics   `json:"key_metrics"`
	}{
		Schema:      experiments.DocSchema,
		GoVersion:   runtime.Version(),
		Fast:        *fast,
		Seed:        *seed,
		Parallelism: *parallel,
		ElapsedSecs: elapsed.Seconds(),
		Runs:        progress.Records(),
		KeyMetrics:  make(map[string]keyMetrics),
	}
	for key, r := range suite.Results() {
		artifact.KeyMetrics[key] = keyMetrics{
			AvgDemandLatency: r.AvgDemandLatency,
			DemandLatP95:     r.DemandLatP95,
			DemandLatP99:     r.DemandLatP99,
			L3MissRate:       r.L3MissRate,
			TotalGBps:        r.TotalGBps,
			SavedFrac:        r.Footprint.Savings(),
		}
	}
	if err := writeFileJSON(*out, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(artifact)
	}); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: %d runs in %.2fs -> %s\n",
		len(artifact.Runs), elapsed.Seconds(), *out)
}

// sweep runs the dedup-aggressiveness study: the sleep_millisecs x
// pages_to_scan grid the paper's §2.1 describes as KSM's tuning knobs,
// reporting the savings reached within a fixed simulated time against the
// kthread's core consumption.
func sweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	appName := fs.String("app", "img_dnn", "application profile")
	pages := fs.Int("pages", 400, "per-VM image pages (scaled)")
	budget := fs.Float64("seconds", 1.0, "simulated scanning time per point")
	fs.Parse(args)

	p := pageforgesim.ProfileByName(*appName)
	if p == nil {
		fmt.Fprintf(os.Stderr, "unknown application %q\n", *appName)
		os.Exit(2)
	}
	if *pages < 1 {
		fmt.Fprintf(os.Stderr, "-pages %d: need at least 1 page per VM\n", *pages)
		os.Exit(2)
	}
	sleeps := []float64{2.5, 5, 10, 20}
	longest := uint64(sleeps[len(sleeps)-1] * 2e6)
	if math.IsNaN(*budget) || math.IsInf(*budget, 0) || *budget < 0 || uint64(*budget*2e9) < longest {
		fmt.Fprintf(os.Stderr, "-seconds %g: need a finite budget covering at least one %g ms interval\n",
			*budget, sleeps[len(sleeps)-1])
		os.Exit(2)
	}
	app := *p
	app.PagesPerVM = *pages

	fmt.Printf("dedup aggressiveness sweep: %s, 10 VMs x %d pages, %.1fs simulated per point\n\n",
		app.Name, app.PagesPerVM, *budget)
	fmt.Printf("%12s %14s %12s %14s %12s\n",
		"sleep_ms", "pages_to_scan", "savings", "kthread_core%", "full_scans")

	for _, sleepMS := range sleeps {
		for _, pts := range []int{100, 400, 1600} {
			img, err := pageforgesim.BuildImage(app, 10, 10*app.PagesPerVM*2, 31)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			s := pageforgesim.NewKSMScanner(img.HV)
			intervalCycles := uint64(sleepMS * 2e6)
			intervals := uint64(*budget*2e9) / intervalCycles
			var busy uint64
			for k := uint64(0); k < intervals; k++ {
				before := s.Cycles.Total()
				res := s.ScanBatch(pts)
				busy += s.Cycles.Total() - before
				if res.PassEnded {
					img.ChurnVolatile()
				}
			}
			f := img.MeasureFootprint()
			corePct := float64(busy) / float64(intervals*intervalCycles) * 100
			fmt.Printf("%12.1f %14d %11.1f%% %13.1f%% %12d\n",
				sleepMS, pts, f.Savings()*100, corePct, s.Alg.Stats.FullScans)
		}
	}
	fmt.Println("\nthe paper's operating point (5ms, 400) converges within the budget at ~6-8%")
	fmt.Println("of one core; PageForge reaches the same savings with the kthread column ~0.")
}
