package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/platform"
)

// options configures one benchmark invocation.
type options struct {
	seconds time.Duration
	// trace selects the per-layer run: spans and a CPU profile around each
	// operation after an untraced first one. Otherwise end-to-end metrics are
	// measured with tracing off.
	trace bool
	// traceDir receives the spans and profiles of a traced invocation.
	traceDir string
	// recorded is the Result digest recorded for this workload and seed; ""
	// when none is recorded.
	recorded string
	seed     uint64
}

// minSetups is how many Runtime.Start timings setup_s takes its median over;
// operations that ran too few get topped up with Start-only runs.
const minSetups = 7

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one invocation's outcome: the result line's fields, plus notes
// printed above it for a human reader.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func (r *report) put(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tracedOp is what a traced operation adds to its op: host CPU time per
// layer from the profile, and the Go runtime's allocation and GC activity.
type tracedOp struct {
	*op
	layers   map[string]int64 // CPU nanoseconds
	profile  []byte           // the gzipped CPU profile
	allocB   uint64
	gcCycles uint32
	gcPause  time.Duration
}

// bench runs one workload for o.seconds as a closed loop, one operation
// after another, checks every result, and reports the metrics of the mode.
func bench(w workload, o options) (*report, error) {
	rep := &report{Metrics: map[string]metric{}}
	// Untimed Baseline reference run with the same app, seed and config: the
	// sojourn ratios divide by it. A Baseline workload is its own reference.
	var ref *platform.Result
	if w.mode != platform.Baseline {
		var err error
		if ref, err = platform.Run(platform.Baseline, w.app, w.cfg); err != nil {
			return nil, fmt.Errorf("baseline reference run: %w", err)
		}
	}
	// One untimed Start lets lazy set-up finish before anything is timed.
	if _, err := timeStart(w); err != nil {
		return nil, fmt.Errorf("warm-up start: %w", err)
	}

	var (
		untraced []*op
		traced   []tracedOp
		rec      *recorder
		first    string // digest of the first good operation
		tried    bool   // a traced operation was attempted
	)
	if o.trace {
		rec = newRecorder()
	}
	start := time.Now()
	half, deadline := start.Add(o.seconds/2), start.Add(o.seconds)
	var last time.Duration // wall time of the previous operation
	for i := 0; ; i++ {
		// A traced invocation runs untraced operations for the first half of
		// the time and traced ones after, at least one of each, so it can
		// report host times with tracing off and the tracing overhead. Past
		// those, an operation starts only if one as long as the last still
		// ends before the deadline, so a run lasts about --seconds.
		must := rep.Attempted == 0 || (o.trace && !tried && len(untraced) > 0)
		if !must && time.Now().Add(last).After(deadline) {
			break
		}
		rep.Attempted++
		began := time.Now()
		var (
			x   *op
			t   tracedOp
			err error
		)
		if o.trace && len(untraced) > 0 && began.After(half) {
			tried = true
			t, err = runTraced(w, ref, rec, i)
			x = t.op
		} else {
			runtime.GC()
			x, err = runOp(w, ref, nil, i)
		}
		last = time.Since(began)
		if err == nil {
			err = check(w, o, x, first)
		}
		if err != nil {
			rep.Failed++
			rep.note("operation %d failed: %v", i, err)
			continue
		}
		if first == "" {
			first = x.digest
		}
		if t.op != nil {
			traced = append(traced, t)
		} else {
			untraced = append(untraced, x)
		}
	}
	if len(untraced) == 0 || (o.trace && len(traced) == 0) {
		return rep, nil
	}
	digestNote(rep, o, first)
	if o.trace {
		if err := layerMetrics(rep, w, untraced, traced, rec, o); err != nil {
			return nil, err
		}
	} else if err := endToEnd(rep, w, ref, untraced); err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// runTraced runs one operation with spans recorded and the CPU profiler on.
func runTraced(w workload, ref *platform.Result, rec *recorder, trace int) (tracedOp, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return tracedOp{}, fmt.Errorf("starting cpu profile: %w", err)
	}
	x, err := runOp(w, ref, rec, trace)
	pprof.StopCPUProfile()
	if err != nil {
		return tracedOp{}, err
	}
	runtime.ReadMemStats(&after)
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return tracedOp{}, err
	}
	t := tracedOp{op: x, layers: map[string]int64{}, profile: buf.Bytes(),
		allocB:   after.TotalAlloc - before.TotalAlloc,
		gcCycles: after.NumGC - before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs)}
	foldByLayer(samples, t.layers)
	return t, nil
}

// check is the correctness gate for one finished operation: the workload's
// liveness condition, then the Result digest against the one recorded for
// this seed and against the invocation's first operation.
func check(w workload, o options, x *op, first string) error {
	if err := w.live(counters(x.res.Metrics.Counters), x.converge); err != nil {
		return fmt.Errorf("liveness: %w", err)
	}
	if o.recorded != "" && x.digest != o.recorded {
		return fmt.Errorf("result digest %s differs from %s recorded for seed %d", x.digest, o.recorded, o.seed)
	}
	if first != "" && x.digest != first {
		return fmt.Errorf("result digest %s differs from this invocation's first run (%s)", x.digest, first)
	}
	return nil
}

func digestNote(rep *report, o options, digest string) {
	how := "no digest is recorded for this seed, so runs were checked against each other only"
	if o.recorded != "" {
		how = "matches the digest recorded for this seed"
	}
	rep.note("result digest %s (%s)", digest, how)
}

// endToEnd fills the metrics a user of the simulator sees that hold steady
// from run to run: set-up time, peak heap and the modelled design's figures.
func endToEnd(rep *report, w workload, ref *platform.Result, ops []*op) error {
	var setups, heaps []float64
	for _, x := range ops {
		setups = append(setups, x.setup.Seconds())
		heaps = append(heaps, float64(x.peakHeap)/1e6)
	}
	for len(setups) < minSetups {
		d, err := timeStart(w)
		if err != nil {
			return fmt.Errorf("timing start: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	rep.put("setup_s", median(setups), "s")
	rep.put("peak_heap_mb", median(heaps), "MB")
	rep.note("peak_heap_mb is a median over %d operations, setup_s over %d starts", len(ops), len(setups))
	return simMetrics(rep, w, ref, ops[0])
}

// hostTimes reports the host time of a run and of its ticks, measured on
// untraced operations: run_s, the median tick and the tick tail, the highest
// percentile with at least minBeyond ticks beyond it. Each is a median over
// operations.
func hostTimes(rep *report, ops []*op) {
	p := tailPercentile(len(ops[0].ticks))
	var runs, p50s, tails []float64
	var beyond int
	for _, x := range ops {
		ticks := seconds(x.ticks)
		p50, _ := percentile(ticks, 50)
		tail, b := percentile(ticks, p)
		runs = append(runs, x.run().Seconds())
		p50s = append(p50s, p50*1e3)
		tails = append(tails, tail*1e3)
		beyond = b
	}
	rep.put("run_s", median(runs), "s")
	rep.put("tick_ms_p50", median(p50s), "ms")
	rep.put("tick_ms_tail", median(tails), "ms")
	rep.note("untraced operations: run_s %s; tick_ms_tail is p%g of %d ticks per operation, %d ticks beyond it",
		list(runs, 4), p, len(ops[0].ticks), beyond)
}

// simMetrics reports the modelled design's figures. The simulator is
// deterministic, so they repeat exactly for a seed.
func simMetrics(rep *report, w workload, ref *platform.Result, x *op) error {
	if ref == nil {
		ref = x.res
	}
	base := platform.Latency(w.app, ref, ref, w.cfg, w.minQueries, latencySeed(w.cfg))
	mean, ok1 := ratio(x.lat.Mean, base.Mean)
	p95, ok2 := ratio(x.lat.P95, base.P95)
	if !ok1 || !ok2 {
		return fmt.Errorf("baseline reference latency is zero")
	}
	res := x.res
	footprint := 1 - res.Footprint.Savings()
	dedupPct := 100 * res.BurstMean / float64(w.cfg.IntervalCycles())
	rep.put("sim.footprint_frac", footprint, "frac")
	rep.put("sim.sojourn_mean_x", mean, "x")
	rep.put("sim.sojourn_p95_x", p95, "x")
	rep.put("sim.l3_miss_rate", res.L3MissRate, "frac")
	rep.put("sim.app_core_pct", 100-dedupPct, "%")
	rep.note("modelled: savings %.1f%%, sojourn mean %.3fx, p95 %.3fx, dedup engine takes %.3f%% of core time",
		100*res.Footprint.Savings(), mean, p95, dedupPct)
	switch w.mode {
	case platform.PageForge:
		rep.note("paper, PageForge averaged over five apps: savings 48%%, sojourn mean 1.10x (Figure 9), p95 1.11x (Figure 10)")
	case platform.KSM:
		rep.note("paper, KSM averaged over five apps: savings 48%%, sojourn mean 1.68x (Figure 9), p95 2.36x (Figure 10)")
	default:
		rep.note("paper: Baseline is the 1.0x reference of Figures 9 and 10 and saves nothing (Figure 7)")
	}
	rep.note("the paper gives cross-app averages only; this per-app model is unvalidated, so no error against the paper is claimed")
	return nil
}

// hostLayers are the simulator layers whose host CPU time is reported; the
// profile folds every other sample into the layer of its package too, and
// those appear in the notes.
var hostLayers = []string{
	"ecc", "memctrl", "pageforge", "dram",
	"mem", "ksm", "rbtree", "hash", "vm", "tailbench",
	"cache", "obs", "platform", "sim", runtimeLayer,
}

// targetLayers are the layers each workload is built to stress; their share
// of host samples shows that it still does.
var targetLayers = map[string][]string{
	"pf-merge":         {"ecc", "memctrl", "pageforge"},
	"ksm-churn":        {"mem", "ksm", "rbtree", "hash"},
	"baseline-traffic": {"cache", "memctrl", "obs", "dram"},
}

// layerMetrics fills the per-layer metrics from the traced operations and
// writes their spans, profiles and the full layer table to o.traceDir.
func layerMetrics(rep *report, w workload, untraced []*op, traced []tracedOp, rec *recorder, o options) error {
	self := selfTimes(rec.spans)
	byTrace := map[int]map[string]time.Duration{}
	var rootSelf = map[int]time.Duration{}
	for _, s := range rec.spans {
		if byTrace[s.Trace] == nil {
			byTrace[s.Trace] = map[string]time.Duration{}
		}
		byTrace[s.Trace][s.Name] += s.dur()
		if s.Parent == 0 {
			rootSelf[s.Trace] = self[s.ID]
		}
	}
	var conv, meas, queue, benchSelf, runs, allocMB, gcs, pauses []float64
	layers := map[string]int64{} // CPU samples, nanoseconds
	wall := map[string]float64{} // the same, as seconds of operation wall time
	for _, t := range traced {
		var total int64
		for _, ns := range t.layers {
			total += ns
		}
		opWall := (t.setup + t.run()).Seconds()
		for l, ns := range t.layers {
			layers[l] += ns
			wall[l] += float64(ns) / float64(total) * opWall
		}
		runs = append(runs, t.run().Seconds())
		allocMB = append(allocMB, float64(t.allocB)/1e6)
		gcs = append(gcs, float64(t.gcCycles))
		pauses = append(pauses, float64(t.gcPause)/1e6)
	}
	for id, names := range byTrace {
		conv = append(conv, names["step.converge"].Seconds())
		meas = append(meas, names["step.measure"].Seconds())
		queue = append(queue, names["latency"].Seconds())
		benchSelf = append(benchSelf, float64(rootSelf[id])/1e6)
	}
	x := traced[0]
	c := counters(x.res.Metrics.Counters)
	g := x.res.Metrics.Gauges
	f := func(name string) float64 { return float64(c[name]) }

	converge := median(conv)
	measure := median(meas)
	rep.put("platform.converge_s", converge, "s")
	rep.put("platform.converge_ticks", float64(x.converge), "count")
	rep.put("platform.measure_s", measure, "s")
	rep.put("platform.measure_ticks", float64(len(x.ticks)-x.converge), "count")
	hostTimes(rep, untraced)
	rep.put("tailbench.queueing_s", median(queue), "s")
	rep.put("tailbench.queries", float64(x.lat.Queries), "count")
	rep.put("go.alloc_mb", median(allocMB), "MB")
	rep.put("go.gc_cycles", median(gcs), "count")
	rep.put("go.gc_pause_ms", median(pauses), "ms")
	rep.put("bench.self_ms", median(benchSelf), "ms")
	var plain []float64
	for _, u := range untraced {
		plain = append(plain, u.run().Seconds())
	}
	rep.put("bench.trace_overhead_s", median(runs)-median(plain), "s")

	var total int64
	for _, ns := range layers {
		total += ns
	}
	// A layer's host time is its share of an operation's CPU samples times
	// the operation's wall time, averaged over the traced operations: the
	// layers' times add up to the operation, and they are not quantized to
	// the profiler's 10 ms sample period.
	hostS := func(l string) float64 { return wall[l] / float64(len(traced)) }
	for _, l := range hostLayers {
		rep.put(l+".host_s", hostS(l), "s")
	}
	var target int64
	for _, l := range targetLayers[w.name] {
		target += layers[l]
	}
	share, _ := ratio(float64(target), float64(total))
	rep.put("profile.target_share", share, "frac")

	rep.put("pageforge.pages_compared", f("pageforge/pages_compared"), "count")
	rep.put("pageforge.lines_fetched", f("pageforge/lines_fetched"), "count")
	rep.put("pageforge.batches", f("pageforge/batches"), "count")
	rep.put("memctrl.pf_fetches", f("memctrl/pf_fetches"), "count")
	rep.put("memctrl.demand_reads", f("memctrl/demand_reads"), "count")
	rep.put("memctrl.coalesced", f("memctrl/demand_coalesced")+f("memctrl/pf_coalesced"), "count")
	rep.put("memctrl.ecc_decodes", f("memctrl/ecc_decodes"), "count")
	rep.put("dram.accesses", f("dram/reads")+f("dram/writes"), "count")
	rep.put("dram.row_hit_rate", g["dram/row_hit_rate"], "frac")
	rep.put("dram.wait_cycles", float64(c.sum("dram/bank_wait_cycles/")+c.sum("dram/bus_wait_cycles/")), "cycles")
	l3 := f("cache/l3_hits") + f("cache/l3_misses")
	rep.put("cache.l3_accesses", l3, "count")
	rep.put("ksm.pages_scanned", f("ksm/pages_scanned"), "count")
	rep.put("ksm.bytes_touched", f("ksm/bytes_touched"), "B")
	rep.put("vm.merges", f("vm/merges"), "count")
	rep.put("vm.unmerges", f("vm/unmerges"), "count")
	rep.put("vm.alloc_stalls", f("vm/alloc_stalls"), "count")
	rep.put("platform.frames_allocated", g["platform/frames_allocated"], "count")
	perAccess, _ := ratio(measure*1e9, l3)
	rep.put("cache.measure_ns_per_l3_access", perAccess, "ns")

	// Ratios whose base is zero on some workload: reported by name where
	// they are defined and marked absent where not, never as 0 or NaN.
	merges := f("ksm/stable_merges") + f("ksm/unstable_merges") + f("ksm/zero_merges")
	hashChecks := f("ksm/hash_matches") + f("ksm/hash_mismatches")
	ksmCycles := f("ksm/cycles_compare") + f("ksm/cycles_hash") + f("ksm/cycles_other")
	optional := []struct {
		name, unit string
		num, den   float64
	}{
		{"pageforge.duplicate_ratio", "frac", f("pageforge/duplicates"), f("pageforge/pages_compared")},
		{"pageforge.early_exit_ratio", "frac", f("pageforge/compare_early_exits"), f("pageforge/pages_compared")},
		{"memctrl.pf_network_hit_ratio", "frac", f("memctrl/pf_network_hits"), f("memctrl/pf_fetches")},
		{"ksm.merge_yield", "frac", merges, f("ksm/pages_scanned")},
		{"ksm.hash_mismatch_ratio", "frac", f("ksm/hash_mismatches"), hashChecks},
		{"ksm.compare_cycles_frac", "frac", f("ksm/cycles_compare"), ksmCycles},
		{"pageforge.converge_ns_per_line", "ns", converge * 1e9, f("pageforge/lines_fetched")},
		{"ecc.host_ns_per_fetch", "ns", hostS("ecc") * 1e9, f("memctrl/pf_fetches")},
		{"ksm.converge_ns_per_page", "ns", converge * 1e9, f("ksm/pages_scanned")},
	}
	table := map[string]metric{}
	for name, m := range rep.Metrics {
		table[name] = m
	}
	for _, r := range optional {
		if v, ok := ratio(r.num, r.den); ok {
			table[r.name] = metric{Value: v, Unit: r.unit}
			rep.note("%s %.6g %s", r.name, v, r.unit)
		} else {
			rep.note("%s absent (zero base on this workload)", r.name)
		}
	}

	var names []string
	for l := range layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	var shares []string
	for _, l := range names {
		shares = append(shares, fmt.Sprintf("%s %.1f%%", l, 100*float64(layers[l])/float64(total)))
	}
	rep.note("host CPU samples by layer over %d traced operations: %s", len(traced), strings.Join(shares, ", "))
	rep.note("target layers %s hold %.1f%% of host samples", strings.Join(targetLayers[w.name], "+"), 100*share)
	rep.note("tracing overhead: traced run_s %.4f s - untraced %.4f s", median(runs), median(plain))
	return writeTrace(o, w.name, rec.spans, table, traced[0].profile)
}

// writeTrace writes the spans and the full per-layer table, the optional
// ratios included, as JSON under o.traceDir, beside the first traced
// operation's CPU profile for go tool pprof.
func writeTrace(o options, name string, spans []span, table map[string]metric, profile []byte) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d", name, o.seed))
	for suffix, v := range map[string]any{".spans.json": spans, ".layers.json": table} {
		b, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(base+suffix, b, 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(base+".cpu.pprof", profile, 0o644)
}
