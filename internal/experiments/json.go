package experiments

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/platform"
)

// DocSchema versions the -json output shape. Bump on breaking changes so
// downstream parsers can reject documents they do not understand.
const DocSchema = "pageforge-repro/v1"

// Doc is the machine-readable experiment output: every selected
// experiment's structured rows under its harness name, plus enough run
// context (seed, apps) to reproduce the document. Experiment result
// structs marshal with their exported field names, so
// .experiments.table4.Rows addresses the same rows the text table renders.
type Doc struct {
	Schema      string         `json:"schema"`
	Seed        uint64         `json:"seed"`
	Apps        []string       `json:"apps"`
	Experiments map[string]any `json:"experiments"`
}

// NewDoc starts a document for the suite's configuration.
func NewDoc(s *Suite) *Doc {
	d := &Doc{
		Schema:      DocSchema,
		Seed:        s.Cfg.Seed,
		Experiments: make(map[string]any),
	}
	for _, app := range s.Apps {
		d.Apps = append(d.Apps, app.Name)
	}
	return d
}

// Add records one experiment's structured result under its harness name.
func (d *Doc) Add(name string, result any) { d.Experiments[name] = result }

// Encode writes the document as indented JSON.
func (d *Doc) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Results returns the suite's completed run cache keyed "Mode/app"
// (platform errors are skipped). Call it after the experiments finish: it
// takes the cache lock, but a concurrently executing run's entry may not
// be populated yet.
func (s *Suite) Results() map[string]*platform.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*platform.Result, len(s.results))
	for key, e := range s.results {
		if e.res != nil {
			out[key] = e.res
		}
	}
	return out
}

// MetricsDoc is the metrics.json export of run -out: each completed run's
// full registry snapshot, keyed "Mode/app", sorted at encode time via the
// map keys.
type MetricsDoc struct {
	Schema string                      `json:"schema"`
	Seed   uint64                      `json:"seed"`
	Snaps  map[string]*runMetricsEntry `json:"runs"`
}

// runMetricsEntry pairs a run's headline numbers with its metric snapshot.
type runMetricsEntry struct {
	Mode             string  `json:"mode"`
	App              string  `json:"app"`
	AvgDemandLatency float64 `json:"avg_demand_latency_cycles"`
	DemandLatP95     float64 `json:"demand_latency_p95_cycles"`
	DemandLatP99     float64 `json:"demand_latency_p99_cycles"`
	Metrics          any     `json:"metrics"`
}

// NewMetricsDoc collects every completed run's metrics snapshot.
func NewMetricsDoc(s *Suite) *MetricsDoc {
	d := &MetricsDoc{Schema: DocSchema, Seed: s.Cfg.Seed, Snaps: make(map[string]*runMetricsEntry)}
	for key, r := range s.Results() {
		d.Snaps[key] = &runMetricsEntry{
			Mode:             r.Mode.String(),
			App:              r.App.Name,
			AvgDemandLatency: r.AvgDemandLatency,
			DemandLatP95:     r.DemandLatP95,
			DemandLatP99:     r.DemandLatP99,
			Metrics:          r.Metrics,
		}
	}
	return d
}

// Encode writes the metrics document as indented JSON.
func (d *MetricsDoc) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// RunRecord is one finished suite run's wall-clock entry, exported for
// bench artifacts.
type RunRecord struct {
	Mode        string  `json:"mode"`
	App         string  `json:"app"`
	WallSeconds float64 `json:"wall_seconds"`
	Err         string  `json:"error,omitempty"`
}

// Records returns the finished runs, sorted slowest first (the same order
// Summary renders).
func (p *ProgressReporter) Records() []RunRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]RunRecord, 0, len(p.records))
	for _, r := range p.records {
		rec := RunRecord{Mode: r.mode.String(), App: r.app, WallSeconds: r.wall.Seconds()}
		if r.err != nil {
			rec.Err = r.err.Error()
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].WallSeconds > out[j].WallSeconds })
	return out
}
