package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestSeriesSampleDeltas(t *testing.T) {
	s := NewSeries(16)
	tr := s.Track("KSM/app")
	reg := NewRegistry()
	reg.SetCounter("a/x", 10)
	reg.SetCounter("a/y", 5)
	reg.SetGauge("g/v", 1.5)
	tr.Sample("converge", 0, 100, reg)

	reg.SetCounter("a/x", 25) // +15
	reg.SetCounter("a/y", 5)  // +0 -> elided
	reg.SetGauge("g/v", 2.5)
	tr.Sample("converge", 1, 160, reg)

	pts := tr.Points()
	if len(pts) != 2 {
		t.Fatalf("points=%d want 2", len(pts))
	}
	// First sample of a phase has no window (no prior sample to delta from);
	// counters still count from zero.
	if pts[0].WindowCycles != 0 {
		t.Fatalf("first window=%d want 0", pts[0].WindowCycles)
	}
	if pts[0].Counters["a/x"] != 10 || pts[0].Counters["a/y"] != 5 {
		t.Fatalf("first counters=%v", pts[0].Counters)
	}
	if pts[1].WindowCycles != 60 {
		t.Fatalf("second window=%d want 60", pts[1].WindowCycles)
	}
	if pts[1].Counters["a/x"] != 15 {
		t.Fatalf("a/x delta=%d want 15", pts[1].Counters["a/x"])
	}
	if _, ok := pts[1].Counters["a/y"]; ok {
		t.Fatal("zero delta not elided")
	}
	if pts[1].Gauges["g/v"] != 2.5 {
		t.Fatalf("gauge=%g want 2.5", pts[1].Gauges["g/v"])
	}
}

// TestSeriesPhaseEpochReset: convergence and measurement run on different
// clock epochs, so the first sample of a new phase must carry a zero window
// instead of a cross-epoch delta.
func TestSeriesPhaseEpochReset(t *testing.T) {
	s := NewSeries(8)
	tr := s.Track("t")
	reg := NewRegistry()
	tr.Sample("converge", 0, 500, reg)
	tr.Sample("measure", 0, 1<<44, reg) // new epoch, far from the converge clock
	tr.Sample("measure", 1, 1<<44+10, reg)
	pts := tr.Points()
	if pts[1].WindowCycles != 0 {
		t.Fatalf("cross-phase window=%d want 0", pts[1].WindowCycles)
	}
	if pts[2].WindowCycles != 10 {
		t.Fatalf("in-phase window=%d want 10", pts[2].WindowCycles)
	}
}

func TestSeriesRingWraparound(t *testing.T) {
	s := NewSeries(4)
	tr := s.Track("t")
	reg := NewRegistry()
	for i := 0; i < 10; i++ {
		tr.Sample("converge", i, uint64(i*10), reg)
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped=%d want 6", tr.Dropped())
	}
	pts := tr.Points()
	if len(pts) != 4 {
		t.Fatalf("points=%d want 4", len(pts))
	}
	for i, p := range pts {
		if want := 6 + i; p.Index != want {
			t.Fatalf("point %d index=%d want %d (order broken)", i, p.Index, want)
		}
	}
}

func TestSeriesStateRoundTrip(t *testing.T) {
	s := NewSeries(8)
	tr := s.Track("t")
	reg := NewRegistry()
	reg.SetCounter("a/x", 3)
	reg.SetGauge("g/v", 7)
	tr.Sample("converge", 0, 10, reg)
	reg.SetCounter("a/x", 9)
	tr.Sample("converge", 1, 30, reg)

	st := tr.State()
	other := NewSeries(8).Track("t")
	other.SetState(st)
	if !reflect.DeepEqual(tr.Points(), other.Points()) {
		t.Fatalf("points diverged after round trip:\n%+v\n%+v", tr.Points(), other.Points())
	}
	// The delta baseline must survive too: the next sample on both tracks
	// has to produce identical points.
	reg.SetCounter("a/x", 14)
	tr.Sample("converge", 2, 45, reg)
	other.Sample("converge", 2, 45, reg)
	a, b := tr.Points(), other.Points()
	if !reflect.DeepEqual(a[len(a)-1], b[len(b)-1]) {
		t.Fatalf("post-restore sample diverged: %+v vs %+v", a[len(a)-1], b[len(b)-1])
	}
}

func TestSeriesNilIsNoop(t *testing.T) {
	var s *Series
	if s.Enabled() {
		t.Fatal("nil series enabled")
	}
	if s.Track("x") != nil {
		t.Fatal("nil series returned a track")
	}
	if s.TrackNames() != nil {
		t.Fatal("nil series has track names")
	}
	var tr *SeriesTrack
	tr.Sample("converge", 0, 0, NewRegistry()) // must not panic
	if tr.Enabled() || tr.Points() != nil || tr.Dropped() != 0 {
		t.Fatal("nil track leaked state")
	}
	tr.SetState(SeriesTrackState{})
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestSeriesJSONRoundTrip writes the artifact and parses it back through
// the exported reader, checking schema, rates, and shape, and that
// re-encoding the parsed file reproduces the written bytes.
func TestSeriesJSONRoundTrip(t *testing.T) {
	s := NewSeries(8)
	tr := s.Track("KSM/app")
	reg := NewRegistry()
	reg.SetCounter("vm/merges", 100)
	reg.SetGauge("platform/frames_allocated", 42)
	tr.Sample("converge", 0, 1000, reg)
	reg.SetCounter("vm/merges", 300) // +200 over 1000 cycles
	tr.Sample("converge", 1, 2000, reg)

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	written := append([]byte(nil), buf.Bytes()...)
	f, err := ReadSeriesJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != SeriesSchema {
		t.Fatalf("schema=%q", f.Schema)
	}
	if len(f.Tracks) != 1 || f.Tracks[0].Name != "KSM/app" || len(f.Tracks[0].Points) != 2 {
		t.Fatalf("shape wrong: %+v", f)
	}
	p := f.Tracks[0].Points[1]
	if p.Counters["vm/merges"] != 200 {
		t.Fatalf("delta=%d want 200", p.Counters["vm/merges"])
	}
	// 200 per 1000 cycles = 200000 per Mcycle.
	if rate := p.Rates["vm/merges"]; rate != 200000 {
		t.Fatalf("rate=%g want 200000", rate)
	}

	var again bytes.Buffer
	if err := json.NewEncoder(&again).Encode(f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), written) {
		t.Fatalf("re-encoded artifact differs:\n got %s\nwant %s", again.Bytes(), written)
	}

	// Unknown schemas are rejected.
	if _, err := ReadSeriesJSON(bytes.NewBufferString(`{"schema":"other/v9","tracks":[]}`)); err == nil {
		t.Fatal("unknown schema accepted")
	}
}
