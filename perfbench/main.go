// Command perfbench is the repository's benchmark. It drives the simulator
// from outside, through its public calls only (platform.NewRuntime(...).Start,
// Runtime.Step until done, Runtime.Result and platform.Latency), times each
// call, and checks every result against recorded digests.
//
//	bash perfbench/run.sh --workload pf-merge --seed 1 --seconds 20 --trace 0
//
// One invocation runs one workload as a closed loop: a single caller runs
// one operation (a whole workload run) after another for --seconds. With
// --trace 0 it reports the end-to-end metrics, measured with tracing off;
// with --trace 1 the per-layer metrics, from spans around each call and a
// CPU profile folded by simulator package, and writes both under
// .bench_build/trace. Notes for a reader come first; the last line of
// standard output is the JSON result. perfbench/README.md explains the
// workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// maxProcs caps GOMAXPROCS, and with it the ksm-churn scan workers, at the
// two cores the benchmark was defined on.
const maxProcs = 2

//go:embed digests.json
var digestsJSON []byte

// digestBook holds the Result digests recorded per seed and workload: the
// reference seed the benchmark was written against and a held-out seed for
// re-checking a later claim.
type digestBook struct {
	ReferenceSeed uint64                       `json:"reference_seed"`
	HeldOutSeed   uint64                       `json:"held_out_seed"`
	Digests       map[string]map[string]string `json:"digests"`
}

func (b digestBook) lookup(seed uint64, workload string) string {
	return b.Digests[strconv.FormatUint(seed, 10)][workload]
}

func main() {
	name := flag.String("workload", "", "workload to run: pf-merge, ksm-churn or baseline-traffic")
	seed := flag.Uint64("seed", 1, "input seed, passed to the simulator as Config.Seed")
	secs := flag.Float64("seconds", 20, "how long to keep starting operations")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	flag.Parse()
	if err := run(*name, *seed, *secs, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, secs float64, trace int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	var book digestBook
	if err := json.Unmarshal(digestsJSON, &book); err != nil {
		return fmt.Errorf("reading digests.json: %w", err)
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	rep, err := bench(w, options{
		seconds:  time.Duration(secs * float64(time.Second)),
		trace:    trace == 1,
		traceDir: ".bench_build/trace",
		recorded: book.lookup(seed, name),
		seed:     seed,
	})
	if err != nil {
		return err
	}
	if err := writeReport(os.Stdout, fmt.Sprintf("%s, seed %d", name, seed), rep); err != nil {
		return err
	}
	if !rep.Correct {
		return fmt.Errorf("%d of %d operations failed", rep.Failed, rep.Attempted)
	}
	return nil
}

// writeReport prints the notes and every metric with its unit for a reader,
// then the JSON result as the last line.
func writeReport(out io.Writer, title string, rep *report) error {
	fmt.Fprintf(out, "# %s, GOMAXPROCS %d: %d operations, %d failed\n",
		title, runtime.GOMAXPROCS(0), rep.Attempted, rep.Failed)
	for _, n := range rep.notes {
		fmt.Fprintln(out, "#", n)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(out, "# %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}
