package faults

// Checkpoint support. The stuck-cell population is immutable configuration
// (rebuilt identically from the seed), so a model image is just the
// transient-draw RNG position and the injection counters. The rate tracker
// is pure policy state and serializes field-for-field.

// ModelState is the serialized image of a fault Model.
type ModelState struct {
	RNG   uint64
	Stats Stats
}

// State captures the model's mutable state.
func (m *Model) State() ModelState {
	return ModelState{RNG: m.rng.State(), Stats: m.stats}
}

// SetState restores the model's mutable state in place.
func (m *Model) SetState(st ModelState) {
	m.rng.SetState(st.RNG)
	m.stats = st.Stats
}

// TrackerState is the serialized image of a RateTracker.
type TrackerState struct {
	LastFetches uint64
	LastUEs     uint64
	Rate        float64
	Seeded      bool
	Tripped     bool
	TrippedAt   uint64
	Windows     uint64
	ClearStreak int
	Recoveries  uint64
	RecoveredAt uint64
}

// State captures the tracker.
func (t *RateTracker) State() TrackerState {
	return TrackerState{
		LastFetches: t.lastFetches,
		LastUEs:     t.lastUEs,
		Rate:        t.rate,
		Seeded:      t.seeded,
		Tripped:     t.tripped,
		TrippedAt:   t.trippedAt,
		Windows:     t.windows,
		ClearStreak: t.clearStreak,
		Recoveries:  t.recoveries,
		RecoveredAt: t.recoveredAt,
	}
}

// SetState restores the tracker in place.
func (t *RateTracker) SetState(st TrackerState) {
	t.lastFetches = st.LastFetches
	t.lastUEs = st.LastUEs
	t.rate = st.Rate
	t.seeded = st.Seeded
	t.tripped = st.Tripped
	t.trippedAt = st.TrippedAt
	t.windows = st.Windows
	t.clearStreak = st.ClearStreak
	t.recoveries = st.Recoveries
	t.recoveredAt = st.RecoveredAt
}
