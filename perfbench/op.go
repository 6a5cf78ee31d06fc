package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/platform"
	"repro/internal/tailbench"
)

// op is one operation: a workload run driven through the simulator's public
// calls, Runtime.Start, Runtime.Step until done and platform.Latency, with
// every call timed.
type op struct {
	setup    time.Duration
	ticks    []time.Duration
	converge int // ticks that advanced a convergence pass
	latency  time.Duration
	peakHeap uint64 // bytes of live heap objects, highest tick-boundary sample
	res      *platform.Result
	lat      tailbench.LatencyResult
	digest   string
}

// run is the host time from the first Step to done, plus the Latency call.
func (o *op) run() time.Duration { return sum(o.ticks) + o.latency }

// latencySeed derives the queueing-phase seed from the config seed, as the
// repository's latency experiment does.
func latencySeed(cfg platform.Config) uint64 { return cfg.Seed*977 + 13 }

// heapObjects is the runtime/metrics name sampled for peak_heap_mb; reading
// it does not stop the world.
const heapObjects = "/memory/classes/heap/objects:bytes"

// runOp runs one operation. ref is the Baseline result platform.Latency
// dilates against; nil means the run is its own reference (Baseline mode).
// With rec non-nil, spans around each call go to rec under trace id.
func runOp(w workload, ref *platform.Result, rec *recorder, trace int) (*op, error) {
	heap := []metrics.Sample{{Name: heapObjects}}
	o := &op{}
	sampleHeap := func() {
		metrics.Read(heap)
		o.peakHeap = max(o.peakHeap, heap[0].Value.Uint64())
	}

	t0 := time.Now()
	root := rec.open(trace, 0, "op", t0)
	r := platform.NewRuntime(w.mode, w.app, w.cfg)
	if err := r.Start(); err != nil {
		return nil, err
	}
	t1 := time.Now()
	o.setup = t1.Sub(t0)
	rec.add(trace, root, "start", t0, t1)
	sampleHeap()

	for done := false; !done; {
		pass := r.Pass()
		ts := time.Now()
		var err error
		done, err = r.Step()
		te := time.Now()
		if err != nil {
			return nil, fmt.Errorf("step %d: %w", len(o.ticks), err)
		}
		o.ticks = append(o.ticks, te.Sub(ts))
		name := "step.measure"
		if r.Pass() != pass {
			o.converge++
			name = "step.converge"
		}
		rec.add(trace, root, name, ts, te)
		sampleHeap()
	}
	o.res = r.Result()
	if ref == nil {
		ref = o.res
	}

	tl := time.Now()
	o.lat = platform.Latency(w.app, ref, o.res, w.cfg, w.minQueries, latencySeed(w.cfg))
	te := time.Now()
	o.latency = te.Sub(tl)
	rec.add(trace, root, "latency", tl, te)
	rec.close(root, te)

	b, err := json.Marshal(o.res)
	if err != nil {
		return nil, fmt.Errorf("encoding result: %w", err)
	}
	d := sha256.Sum256(b)
	o.digest = hex.EncodeToString(d[:])
	return o, nil
}

// timeStart times one Runtime.Start on a collected heap and abandons the run.
func timeStart(w workload) (time.Duration, error) {
	runtime.GC()
	r := platform.NewRuntime(w.mode, w.app, w.cfg)
	t := time.Now()
	err := r.Start()
	d := time.Since(t)
	r.Stop()
	return d, err
}
