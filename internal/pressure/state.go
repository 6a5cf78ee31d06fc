package pressure

// Checkpoint support: both policy objects are pure state machines over
// plain numbers, so their images are field-for-field copies.

// ControllerState is the serialized image of a Controller.
type ControllerState struct {
	Level     Level
	Throttled bool
	LatBase   float64
	LatEWMA   float64
	LatSeeded bool
	Throttles uint64
}

// State captures the controller.
func (c *Controller) State() ControllerState {
	return ControllerState{
		Level:     c.level,
		Throttled: c.throttled,
		LatBase:   c.latBase,
		LatEWMA:   c.latEWMA,
		LatSeeded: c.latSeeded,
		Throttles: c.Throttles,
	}
}

// SetState restores the controller in place.
func (c *Controller) SetState(st ControllerState) {
	c.level = st.Level
	c.throttled = st.Throttled
	c.latBase = st.LatBase
	c.latEWMA = st.LatEWMA
	c.latSeeded = st.LatSeeded
	c.Throttles = st.Throttles
}

// LadderState is the serialized image of a Ladder.
type LadderState struct {
	State       State
	FailEWMA    float64
	FailSeeded  bool
	ClearStreak int
	Transitions []Transition
}

// State captures the ladder.
func (l *Ladder) CaptureState() LadderState {
	return LadderState{
		State:       l.state,
		FailEWMA:    l.failEWMA,
		FailSeeded:  l.failSeeded,
		ClearStreak: l.clearStreak,
		Transitions: append([]Transition(nil), l.transitions...),
	}
}

// SetState restores the ladder in place.
func (l *Ladder) SetState(st LadderState) {
	l.state = st.State
	l.failEWMA = st.FailEWMA
	l.failSeeded = st.FailSeeded
	l.clearStreak = st.ClearStreak
	l.transitions = append(l.transitions[:0], st.Transitions...)
}
