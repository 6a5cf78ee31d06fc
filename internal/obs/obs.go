// Package obs is the unified observability layer of the simulator: a
// metrics registry (typed counters, gauges, and a streaming log-bucketed
// histogram with cheap snapshot/diff semantics), and an event tracer that
// records typed simulation events into a bounded ring buffer and
// serializes them as Chrome trace_event JSON loadable in Perfetto.
//
// Ownership model: one Registry belongs to one simulation run and its
// metric handles are NOT synchronized — a run is single-goroutine, and
// the parallel suite runner gives every run its own registry, so snapshots
// are race-free by construction. The Tracer, in contrast, IS shared across
// concurrently executing runs (each registers its own trace process), so
// it synchronizes internally. A nil *Tracer is fully functional and free:
// every method is nil-safe and tracing-off costs one predicted branch.
package obs

import "sync"

// Counter is a monotonically increasing uint64 metric. Handles are owned
// by a single goroutine (see the package comment).
type Counter struct {
	v uint64
}

// Add increases the counter by delta.
func (c *Counter) Add(delta uint64) { c.v += delta }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v++ }

// Set overwrites the value — used when publishing an externally maintained
// cumulative statistic (a module's stats struct) into the registry.
func (c *Counter) Set(v uint64) { c.v = v }

// Value reports the current value.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is an instantaneous float64 metric (a rate, a ratio, a level).
type Gauge struct {
	v float64
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.v = v }

// Value reports the current value.
func (g *Gauge) Value() float64 { return g.v }

// Registry is a named bag of metrics. Registration (the Counter / Gauge /
// Histogram lookups) is synchronized so layers can lazily register from
// anywhere; the returned handles are not — they belong to the run's
// goroutine.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// HasCounter reports whether a counter with the name has been registered.
// Publishers that elide zero-valued families on first publish use it to
// keep re-publishing a name once it exists: a replayed pass after a crash
// restore would otherwise leave a stale future value in the registry.
func (r *Registry) HasCounter(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.counters[name]
	return ok
}

// SetCounter is shorthand for Counter(name).Set(v), the idiom for
// publishing a module's cumulative stats struct at end of run.
func (r *Registry) SetCounter(name string, v uint64) { r.Counter(name).Set(v) }

// SetGauge is shorthand for Gauge(name).Set(v).
func (r *Registry) SetGauge(name string, v float64) { r.Gauge(name).Set(v) }

// Snapshot captures every registered metric. The result is deterministic
// for a deterministic run (map key order does not leak: JSON encoding
// sorts keys, and Diff matches by name).
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.v
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Snapshot is a point-in-time copy of a registry's metrics, the unit of
// machine-readable metric output (platform.Result.Metrics, metrics.json).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Diff returns the change from prev to s: counters subtract (a name
// missing from prev counts from zero), gauges keep their current value
// (instantaneous by nature), histograms subtract bucket-wise with the
// distribution summary recomputed over the window's buckets.
func (s *Snapshot) Diff(prev *Snapshot) *Snapshot {
	out := &Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		var p uint64
		if prev != nil {
			p = prev.Counters[name]
		}
		out.Counters[name] = v - p
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		var p HistogramSnapshot
		if prev != nil {
			p = prev.Histograms[name]
		}
		out.Histograms[name] = h.Diff(p)
	}
	return out
}
