package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// SeriesSchema versions the JSON shape of the series.json artifact.
const SeriesSchema = "pageforge-series/v1"

// DefaultSeriesCapacity bounds a track's point ring when NewSeries is given
// no size: comfortably every convergence pass plus every measurement
// interval of a full-scale run, per track.
const DefaultSeriesCapacity = 4096

// Series is the windowed time-series layer: at every convergence-pass
// boundary (and every measurement interval) the platform publishes its
// cumulative counters into the run's registry and samples them into a
// bounded ring of per-window deltas. Like the Tracer, one Series may serve
// many concurrently executing runs — registration is synchronized and each
// run samples through its own SeriesTrack, whose handle follows the
// registry ownership model (single-goroutine, race-free by construction).
// A nil *Series is the disabled state: every method no-ops.
type Series struct {
	mu     sync.Mutex
	cap    int
	tracks map[string]*SeriesTrack
	order  []string // registration order, for deterministic default listing
}

// NewSeries returns a collector whose tracks retain the last capacity
// points each (DefaultSeriesCapacity if capacity <= 0).
func NewSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &Series{cap: capacity, tracks: make(map[string]*SeriesTrack)}
}

// Enabled reports whether series collection is on; nil-safe.
func (s *Series) Enabled() bool { return s != nil }

// Track returns the named per-run track, registering it on first use. Track
// names follow the suite's run naming ("Mode/app"). The returned handle is
// not synchronized — it belongs to the run's goroutine.
func (s *Series) Track(name string) *SeriesTrack {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tracks[name]
	if !ok {
		t = &SeriesTrack{name: name, buf: make([]SeriesPoint, 0, s.cap), cap: s.cap}
		s.tracks[name] = t
		s.order = append(s.order, name)
	}
	return t
}

// TrackNames returns the registered track names, sorted.
func (s *Series) TrackNames() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, len(s.order))
	copy(names, s.order)
	sort.Strings(names)
	return names
}

// SeriesPoint is one sampled window: the counter deltas accumulated since
// the previous sample on the same track (zero deltas elided), plus the
// instantaneous gauge values. Phase is "converge" during convergence passes
// and "measure" during steady-state measurement; Index is the pass or
// interval number; Cycles is the phase clock at the sample and WindowCycles
// the elapsed cycles since the previous sample (zero on the first sample of
// a phase — the phases run on different clock epochs, so a cross-phase
// delta would be meaningless).
type SeriesPoint struct {
	Phase        string             `json:"phase"`
	Index        int                `json:"index"`
	Cycles       uint64             `json:"cycles"`
	WindowCycles uint64             `json:"windowCycles"`
	Counters     map[string]uint64  `json:"counters,omitempty"`
	Gauges       map[string]float64 `json:"gauges,omitempty"`
}

// SeriesTrack is one run's ring of sampled windows. The zero value is not
// usable; obtain tracks from Series.Track. A nil *SeriesTrack no-ops.
type SeriesTrack struct {
	name    string
	cap     int
	buf     []SeriesPoint
	next    int
	full    bool
	dropped uint64

	prevCounters map[string]uint64
	prevCycles   uint64
	prevPhase    string
}

// Enabled reports whether this track samples; nil-safe.
func (t *SeriesTrack) Enabled() bool { return t != nil }

// Name reports the track's registration name.
func (t *SeriesTrack) Name() string { return t.name }

// Dropped reports how many points the ring has overwritten.
func (t *SeriesTrack) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Sample reads the registry's current counters and gauges and records one
// window: counter deltas against the previous sample (a counter missing
// from the previous sample counts from zero; zero deltas are elided so
// points stay compact), gauges as-is. The caller must have published every
// cumulative statistic into the registry first — the platform does this by
// re-running its end-of-run metric publication at each boundary, which is
// safe because publication is idempotent overwrite of monotonic values.
func (t *SeriesTrack) Sample(phase string, index int, nowCycles uint64, reg *Registry) {
	if t == nil {
		return
	}
	snap := reg.Snapshot()
	window := nowCycles - t.prevCycles
	if phase != t.prevPhase || nowCycles < t.prevCycles {
		window = 0
	}
	pt := SeriesPoint{
		Phase:        phase,
		Index:        index,
		Cycles:       nowCycles,
		WindowCycles: window,
	}
	for name, v := range snap.Counters {
		d := v - t.prevCounters[name]
		if d != 0 {
			if pt.Counters == nil {
				pt.Counters = make(map[string]uint64)
			}
			pt.Counters[name] = d
		}
	}
	if len(snap.Gauges) > 0 {
		pt.Gauges = make(map[string]float64, len(snap.Gauges))
		for name, v := range snap.Gauges {
			pt.Gauges[name] = v
		}
	}
	t.prevCounters = snap.Counters
	t.prevCycles = nowCycles
	t.prevPhase = phase
	t.push(pt)
}

// Rebase makes the registry's current counters the baseline of the next
// sample's deltas, recording no point. Call it right after resetting a
// cumulative counter, so the next window does not wrap below the old value.
func (t *SeriesTrack) Rebase(reg *Registry) {
	if t != nil {
		t.prevCounters = reg.Snapshot().Counters
	}
}

// push appends to the ring, overwriting the oldest point when full.
func (t *SeriesTrack) push(pt SeriesPoint) {
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, pt)
		return
	}
	t.dropped++
	t.buf[t.next] = pt
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	t.full = true
}

// Points returns the retained points in sample order.
func (t *SeriesTrack) Points() []SeriesPoint {
	if t == nil {
		return nil
	}
	if !t.full {
		out := make([]SeriesPoint, len(t.buf))
		copy(out, t.buf)
		return out
	}
	out := make([]SeriesPoint, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// --- Crash-checkpoint state --------------------------------------------------
//
// A track is part of the simulated world: a checkpointed run must restore
// its sample ring and delta baseline bit-exactly so replayed passes
// re-sample identically. The state types are map-free (sorted parallel
// slices) because the snapshot codec requires byte-deterministic encoding.

// SeriesPointState is one point in codec-safe form.
type SeriesPointState struct {
	Phase        string
	Index        int
	Cycles       uint64
	WindowCycles uint64
	CtrNames     []string
	CtrVals      []uint64
	GaugeNames   []string
	GaugeVals    []float64
}

// SeriesTrackState is a track's full checkpointable state.
type SeriesTrackState struct {
	Points     []SeriesPointState // sample order
	Dropped    uint64
	PrevNames  []string
	PrevVals   []uint64
	PrevCycles uint64
	PrevPhase  string
}

func sortedCounterKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// State captures the track for a checkpoint.
func (t *SeriesTrack) State() SeriesTrackState {
	if t == nil {
		return SeriesTrackState{}
	}
	st := SeriesTrackState{Dropped: t.dropped, PrevCycles: t.prevCycles, PrevPhase: t.prevPhase}
	for _, pt := range t.Points() {
		ps := SeriesPointState{
			Phase:        pt.Phase,
			Index:        pt.Index,
			Cycles:       pt.Cycles,
			WindowCycles: pt.WindowCycles,
		}
		for _, k := range sortedCounterKeys(pt.Counters) {
			ps.CtrNames = append(ps.CtrNames, k)
			ps.CtrVals = append(ps.CtrVals, pt.Counters[k])
		}
		gkeys := make([]string, 0, len(pt.Gauges))
		for k := range pt.Gauges {
			gkeys = append(gkeys, k)
		}
		sort.Strings(gkeys)
		for _, k := range gkeys {
			ps.GaugeNames = append(ps.GaugeNames, k)
			ps.GaugeVals = append(ps.GaugeVals, pt.Gauges[k])
		}
		st.Points = append(st.Points, ps)
	}
	for _, k := range sortedCounterKeys(t.prevCounters) {
		st.PrevNames = append(st.PrevNames, k)
		st.PrevVals = append(st.PrevVals, t.prevCounters[k])
	}
	return st
}

// SetState rewinds the track to a checkpointed state.
func (t *SeriesTrack) SetState(st SeriesTrackState) {
	if t == nil {
		return
	}
	t.buf = t.buf[:0]
	t.next = 0
	t.full = false
	t.dropped = st.Dropped
	t.prevCycles = st.PrevCycles
	t.prevPhase = st.PrevPhase
	t.prevCounters = nil
	if len(st.PrevNames) > 0 {
		t.prevCounters = make(map[string]uint64, len(st.PrevNames))
		for i, k := range st.PrevNames {
			t.prevCounters[k] = st.PrevVals[i]
		}
	}
	for _, ps := range st.Points {
		pt := SeriesPoint{
			Phase:        ps.Phase,
			Index:        ps.Index,
			Cycles:       ps.Cycles,
			WindowCycles: ps.WindowCycles,
		}
		if len(ps.CtrNames) > 0 {
			pt.Counters = make(map[string]uint64, len(ps.CtrNames))
			for i, k := range ps.CtrNames {
				pt.Counters[k] = ps.CtrVals[i]
			}
		}
		if len(ps.GaugeNames) > 0 {
			pt.Gauges = make(map[string]float64, len(ps.GaugeNames))
			for i, k := range ps.GaugeNames {
				pt.Gauges[k] = ps.GaugeVals[i]
			}
		}
		// Points restored this way never exceed cap: the ring they were
		// captured from was itself bounded by the same capacity.
		t.buf = append(t.buf, pt)
	}
}

// --- JSON export -------------------------------------------------------------

// fileValue builds the artifact shape: every track, sorted by name, with
// per-window rates (counter delta per million cycles) derived at export
// time. Windows with zero elapsed cycles (possible when an engine's wall
// clock does not advance) carry no rates.
func (s *Series) fileValue() SeriesFile {
	out := SeriesFile{Schema: SeriesSchema}
	if s != nil {
		s.mu.Lock()
		names := make([]string, len(s.order))
		copy(names, s.order)
		tracks := make(map[string]*SeriesTrack, len(s.tracks))
		for k, v := range s.tracks {
			tracks[k] = v
		}
		s.mu.Unlock()
		sort.Strings(names)
		for _, name := range names {
			t := tracks[name]
			tj := SeriesFileTrack{Name: name, Dropped: t.Dropped(), Points: []SeriesFilePoint{}}
			for _, pt := range t.Points() {
				pj := SeriesFilePoint{SeriesPoint: pt}
				if pt.WindowCycles > 0 && len(pt.Counters) > 0 {
					pj.Rates = make(map[string]float64, len(pt.Counters))
					for k, d := range pt.Counters {
						pj.Rates[k] = float64(d) * 1e6 / float64(pt.WindowCycles)
					}
				}
				tj.Points = append(tj.Points, pj)
			}
			out.Tracks = append(out.Tracks, tj)
		}
	}
	if out.Tracks == nil {
		out.Tracks = []SeriesFileTrack{}
	}
	return out
}

// WriteJSON serializes the series as a series.json artifact.
func (s *Series) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(s.fileValue())
}
